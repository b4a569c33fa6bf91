"""Multi-GPU benchmark: device-count sweep with byte-identity checks.

For each workload and each device count, runs the optimized streams
pipeline under an N-device topology and compares it against the
single-device streams baseline: observables must be byte-identical
(the eager-data model makes N-device placement purely a scheduling
decision, and this sweep is the empirical check of that claim), and
the overlap-aware critical path gives the modeled speedup.

Exposed as ``python -m repro multibench`` (writes
``BENCH_multigpu.json``).  Divergence is always an error; the
speedups are the experiment's result, not a gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import api
from ..core.config import CgcmConfig, OptLevel
from ..gpu.topology import Topology
from ..workloads import ALL_WORKLOADS, Workload
from . import figure4
from .sweep import SweepReport, SweepRow, observable_mismatches

#: Schema tag for BENCH_multigpu.json (bump on incompatible change).
MULTIGPU_SCHEMA = "repro-bench-multigpu/1"

#: Device counts swept by default (1 is the baseline itself).
DEFAULT_DEVICE_COUNTS = (1, 2, 4, 8)

#: Counters worth keeping per cell.
_KEPT_COUNTERS = ("p2p_copies", "p2p_bytes", "multi_device_launches",
                  "sharded_launches", "multigpu_placements")


@dataclass
class MultiGpuCell(SweepRow):
    """One workload under one device count."""

    name: str
    devices: int
    topology: str
    baseline_s: float
    critical_path_s: float
    counters: Dict[str, int] = field(default_factory=dict)
    mismatches: Tuple[str, ...] = ()

    @property
    def speedup(self) -> float:
        if self.critical_path_s <= 0:
            return float("inf")
        return self.baseline_s / self.critical_path_s

    def summary(self) -> str:
        return (f"{self.name:16s} {self.devices}dev "
                f"{self.speedup:6.2f}x  {self.status}")

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "devices": self.devices,
            "topology": self.topology,
            "baseline_s": self.baseline_s,
            "critical_path_s": self.critical_path_s,
            "speedup": round(self.speedup, 4),
            "identical": self.ok,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "mismatches": list(self.mismatches),
        }


@dataclass
class MultiGpuReport(SweepReport):
    """The whole device-count sweep plus per-count geomeans."""

    schema = MULTIGPU_SCHEMA
    committed_path = "BENCH_multigpu.json"
    rows_key = "cells"

    topology: str
    device_counts: Tuple[int, ...]
    rows: List[MultiGpuCell] = field(default_factory=list)

    def geomean(self, devices: int) -> float:
        return figure4.geomean(c.speedup for c in self.rows
                               if c.ok and c.devices == devices)

    def headline(self) -> Dict:
        return {"topology": self.topology,
                "device_counts": list(self.device_counts),
                "geomeans": {str(n): round(self.geomean(n), 4)
                             for n in self.device_counts}}

    def render(self) -> str:
        counts = [n for n in self.device_counts if n > 1]
        header = f"{'workload':16s}" + "".join(
            f" {f'{n}dev':>8s}" for n in counts)
        lines = [header]
        names = dict.fromkeys(c.name for c in self.rows)
        by_key = {(c.name, c.devices): c for c in self.rows}
        for name in names:
            row = f"{name:16s}"
            for n in counts:
                cell = by_key.get((name, n))
                if cell is None:
                    row += f" {'-':>8s}"
                else:
                    row += (f" {cell.speedup:7.2f}x"
                            if cell.ok else f" {'DIVERGE':>8s}")
            lines.append(row)
        row = f"{'geomean':16s}"
        for n in counts:
            row += f" {self.geomean(n):7.2f}x"
        lines.append(row)
        return "\n".join(lines)


def _cells(workloads: Sequence[Workload], device_counts: Tuple[int, ...],
           topology_kind: str, level: OptLevel) -> Iterator[MultiGpuCell]:
    for workload in workloads:
        base = api.compile_workload(
            workload.source, CgcmConfig(opt_level=level, streams=True),
            name=workload.name).run()
        base_cp = base.critical_path_seconds
        for n in device_counts:
            if n <= 1:
                yield MultiGpuCell(workload.name, 1, "single",
                                   base_cp, base_cp)
                continue
            topo = Topology.build(topology_kind, n)
            result = api.compile_workload(
                workload.source, CgcmConfig(opt_level=level, topology=topo),
                name=workload.name).run()
            yield MultiGpuCell(
                workload.name, n, topo.kind, base_cp,
                result.critical_path_seconds,
                counters={k: result.counters.get(k, 0)
                          for k in _KEPT_COUNTERS},
                mismatches=observable_mismatches(
                    base, result, f"between 1 and {n} devices"))


def run_multigpu_bench(workloads: Optional[List[Workload]] = None,
                       device_counts: Tuple[int, ...] = DEFAULT_DEVICE_COUNTS,
                       topology_kind: str = "full",
                       level: OptLevel = OptLevel.OPTIMIZED,
                       progress=None) -> MultiGpuReport:
    """The sweep; ``progress`` is an optional per-cell callback.

    Every multi-device cell is checked byte-identical against the
    single-device streams baseline of the same workload.  A device
    count of 1 reuses the baseline itself (speedup exactly 1.0) so
    the report always contains the reference row.
    """
    if workloads is None:
        workloads = ALL_WORKLOADS
    device_counts = tuple(device_counts)
    return MultiGpuReport(topology_kind, device_counts).collect(
        _cells(workloads, device_counts, topology_kind, level), progress)
