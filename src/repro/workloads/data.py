"""Workload metadata: the paper's Table 3 reference numbers.

``PaperRow`` records what the paper measured for each program so the
evaluation harness (and EXPERIMENTS.md) can print paper-vs-measured
side by side.  Percentages are of total execution time; applicability
counts are kernels manageable by each technique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class PaperRow:
    """One row of the paper's Table 3."""

    kernels: int
    limiting_factor: str                 # "GPU" | "Comm." | "Other"
    gpu_pct: Tuple[float, float]         # (unoptimized, optimized)
    comm_pct: Tuple[float, float]        # (unoptimized, optimized)
    applicable_cgcm: int
    applicable_inspector_executor: int
    applicable_named_regions: int
    has_manual_parallelization: bool = False


@dataclass(frozen=True)
class Workload:
    """One benchmark program: MiniC source plus paper reference data."""

    name: str
    suite: str                           # PolyBench/Rodinia/StreamIt/PARSEC
    description: str
    source: str
    paper: PaperRow

    def __repr__(self) -> str:
        return f"<Workload {self.name} ({self.suite})>"
