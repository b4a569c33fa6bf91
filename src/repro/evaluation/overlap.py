"""Overlap benchmark: serial vs streamed modeled time, all 24 workloads.

For each workload, runs the optimized pipeline twice -- once with the
fully synchronous discipline (the paper's schedules) and once with the
streams subsystem (comm-overlap transform + asynchronous execution) --
and records the serial total against the overlap-aware critical path.
Along the way it asserts the transformation's contract: byte-identical
observables, and a critical path never longer than the serial total.

Exposed as ``python -m repro bench --streams`` (writes
``BENCH_streams.json``) and to the test-suite through the
``bench``-marked tests.  Divergence is always an error; the speedups
themselves are the experiment's result, not a gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.compiler import CgcmCompiler
from ..core.config import CgcmConfig, OptLevel
from ..workloads import ALL_WORKLOADS, Workload
from .figure4 import geomean
from .runner import limiting_factor
from .sweep import SweepReport, SweepRow, observable_mismatches

#: Schema tag for BENCH_streams.json (bump on incompatible change).
OVERLAP_SCHEMA = "repro-bench-streams/1"


@dataclass
class OverlapComparison(SweepRow):
    """Serial vs streamed run of one workload."""

    name: str
    serial_s: float
    critical_path_s: float
    comm_fraction: float
    limiting_factor: str
    overlap_stats: Dict[str, int]
    counters: Dict[str, int] = field(default_factory=dict)
    mismatches: Tuple[str, ...] = ()

    @property
    def speedup(self) -> float:
        if self.critical_path_s <= 0:
            return float("inf")
        return self.serial_s / self.critical_path_s

    @property
    def comm_bound(self) -> bool:
        """Communication-limited in the paper's §6 classification."""
        return self.limiting_factor == "Comm."

    def summary(self) -> str:
        return f"{self.name:16s} {self.speedup:6.2f}x  {self.status}"

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "serial_s": self.serial_s,
            "critical_path_s": self.critical_path_s,
            "speedup": round(self.speedup, 4),
            "comm_fraction": round(self.comm_fraction, 4),
            "limiting_factor": self.limiting_factor,
            "comm_bound": self.comm_bound,
            "overlap_stats": dict(self.overlap_stats),
            "counters": {k: self.counters[k] for k in sorted(self.counters)
                         if k in ("kernel_launches", "htod_copies",
                                  "dtoh_copies")},
            "mismatches": list(self.mismatches),
        }


@dataclass
class OverlapReport(SweepReport):
    """The whole sweep plus the headline geomeans."""

    schema = OVERLAP_SCHEMA
    committed_path = "BENCH_streams.json"
    rows_key = "workloads"

    rows: List[OverlapComparison] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        return geomean(c.speedup for c in self.rows if c.ok)

    @property
    def comm_bound_geomean_speedup(self) -> float:
        return geomean(c.speedup for c in self.rows
                       if c.ok and c.comm_bound)

    def headline(self) -> Dict:
        return {"geomean_speedup": round(self.geomean_speedup, 4),
                "comm_bound_geomean_speedup": round(
                    self.comm_bound_geomean_speedup, 4)}

    def render(self) -> str:
        lines = [f"{'workload':16s} {'serial':>10s} {'overlap':>10s} "
                 f"{'speedup':>8s} {'limit':>6s}"]
        for c in self.rows:
            status = "" if c.ok else "  DIVERGED"
            lines.append(
                f"{c.name:16s} {c.serial_s * 1e6:8.2f}us "
                f"{c.critical_path_s * 1e6:8.2f}us "
                f"{c.speedup:7.2f}x {c.limiting_factor:>6s}{status}")
        lines.append(f"{'geomean':16s} {'':10s} {'':10s} "
                     f"{self.geomean_speedup:7.2f}x")
        lines.append(f"{'geomean (comm.)':16s} {'':10s} {'':10s} "
                     f"{self.comm_bound_geomean_speedup:7.2f}x")
        return "\n".join(lines)


def compare_overlap(workload: Workload,
                    level: OptLevel = OptLevel.OPTIMIZED) -> OverlapComparison:
    """Serial and streamed runs of one workload, with contract checks."""
    serial = CgcmCompiler(CgcmConfig(opt_level=level))
    serial_result = serial.execute(
        serial.compile_source(workload.source, workload.name))

    streamed = CgcmCompiler(CgcmConfig(opt_level=level, streams=True))
    streamed_report = streamed.compile_source(workload.source, workload.name)
    streamed_result = streamed.execute(streamed_report)

    mismatches = observable_mismatches(serial_result, streamed_result,
                                       "between serial and streams")
    if streamed_result.critical_path_seconds \
            > serial_result.total_seconds * (1 + 1e-12):
        mismatches += (
            f"critical path {streamed_result.critical_path_seconds} "
            f"exceeds serial total {serial_result.total_seconds}",)

    total = serial_result.total_seconds
    return OverlapComparison(
        name=workload.name,
        serial_s=total,
        critical_path_s=streamed_result.critical_path_seconds,
        comm_fraction=(serial_result.comm_seconds / total
                       if total > 0 else 0.0),
        limiting_factor=limiting_factor(serial_result),
        overlap_stats=dict(streamed_report.overlap_stats),
        counters=dict(streamed_result.counters),
        mismatches=mismatches)


def run_overlap_bench(workloads: Optional[List[Workload]] = None,
                      level: OptLevel = OptLevel.OPTIMIZED,
                      progress=None) -> OverlapReport:
    """The full sweep; ``progress`` is an optional per-row callback."""
    if workloads is None:
        workloads = ALL_WORKLOADS
    return OverlapReport().collect(
        (compare_overlap(w, level) for w in workloads), progress)
