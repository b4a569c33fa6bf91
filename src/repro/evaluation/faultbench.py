"""Fault benchmark: the chaos sweep plus resilience overhead numbers.

For each workload, runs the optimized pipeline once fault-free (the
baseline) and then under each seeded fault schedule of
:func:`repro.gpu.faults.fault_schedules`:

* ``overhead``  -- resilience armed (device heap capped at the full
  arena) but no fault ever fires: measures the pure cost of the
  launch-gate bookkeeping.  This must stay within noise of the
  unarmed run.
* ``transient`` -- seeded alloc/transfer/launch faults at moderate
  rates; every fault is ridden out by bounded retry.
* ``pressure``  -- aggressive fault rates plus a 64 KiB device heap:
  exercises LRU eviction, address-stable restore, and retry together.
* ``tiny-heap`` -- a 4 KiB device heap and no injected faults: most
  units cannot be resident, driving sentinel ranges and CPU-fallback
  launches.

Every schedule must reproduce the baseline observables byte for byte;
divergence is always an error.  The recovery counters (evictions,
restores, refreshes, fallbacks, retries) are the experiment's result.

Exposed as ``python -m repro faultbench`` (writes
``BENCH_faults.json``) and to the test-suite through the
``bench``-marked tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.compiler import CgcmCompiler, ExecutionResult
from ..core.config import CgcmConfig, OptLevel
from ..gpu.faults import fault_schedules, workload_seed
from ..workloads import ALL_WORKLOADS, Workload
from .sweep import SweepReport, SweepRow, observable_mismatches

#: Schema tag for BENCH_faults.json (bump on incompatible change).
FAULTBENCH_SCHEMA = "repro-bench-faults/1"

#: Recovery counters worth reporting per run.
RECOVERY_COUNTERS = (
    "injected_alloc_faults", "injected_transfer_faults",
    "injected_launch_faults", "fault_retries", "device_evictions",
    "device_restores", "device_refreshes", "cpu_fallback_launches",
    "sentinel_units",
)


@dataclass
class FaultComparison(SweepRow):
    """One workload under one fault schedule vs its clean baseline."""

    name: str
    schedule: str
    baseline_s: float
    faulted_s: float
    counters: Dict[str, int] = field(default_factory=dict)
    mismatches: Tuple[str, ...] = ()

    @property
    def overhead(self) -> float:
        """Modelled-time ratio of the faulted run over the baseline."""
        if self.baseline_s <= 0:
            return float("inf")
        return self.faulted_s / self.baseline_s

    def summary(self) -> str:
        return (f"{self.name:16s} {self.schedule:10s} "
                f"{self.overhead:6.2f}x  {self.status}")

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "schedule": self.schedule,
            "baseline_s": self.baseline_s,
            "faulted_s": self.faulted_s,
            "overhead": round(self.overhead, 6),
            "counters": {k: self.counters.get(k, 0)
                         for k in RECOVERY_COUNTERS},
            "mismatches": list(self.mismatches),
        }


@dataclass
class FaultReport(SweepReport):
    """The whole sweep plus the headline identical-observables count."""

    schema = FAULTBENCH_SCHEMA
    committed_path = "BENCH_faults.json"
    rows_key = "runs"

    rows: List[FaultComparison] = field(default_factory=list)

    @property
    def identical(self) -> Tuple[int, int]:
        good = sum(1 for c in self.rows if c.ok)
        return good, len(self.rows)

    @property
    def workloads_identical(self) -> Tuple[int, int]:
        names = {c.name for c in self.rows}
        bad = {c.name for c in self.rows if not c.ok}
        return len(names) - len(bad), len(names)

    @property
    def max_overhead(self) -> float:
        """Worst no-fault overhead ratio (the ``overhead`` schedule)."""
        rows = [c.overhead for c in self.rows if c.schedule == "overhead"]
        return max(rows) if rows else 0.0

    def headline(self) -> Dict:
        good, total = self.identical
        wgood, wtotal = self.workloads_identical
        return {"identical_runs": f"{good}/{total}",
                "identical_workloads": f"{wgood}/{wtotal}",
                "max_no_fault_overhead": round(self.max_overhead, 6)}

    def render(self) -> str:
        lines = [f"{'workload':16s} {'schedule':10s} {'overhead':>9s} "
                 f"{'evict':>6s} {'restore':>8s} {'fallback':>9s} "
                 f"{'retries':>8s}"]
        for c in self.rows:
            status = "" if c.ok else "  DIVERGED"
            lines.append(
                f"{c.name:16s} {c.schedule:10s} {c.overhead:8.3f}x "
                f"{c.counters.get('device_evictions', 0):6d} "
                f"{c.counters.get('device_restores', 0):8d} "
                f"{c.counters.get('cpu_fallback_launches', 0):9d} "
                f"{c.counters.get('fault_retries', 0):8d}{status}")
        good, total = self.identical
        lines.append(f"identical observables: {good}/{total} runs, "
                     f"max no-fault overhead "
                     f"{self.max_overhead:.3f}x")
        return "\n".join(lines)


def _execute(workload: Workload, config: CgcmConfig) -> ExecutionResult:
    compiler = CgcmCompiler(config)
    return compiler.execute(
        compiler.compile_source(workload.source, workload.name))


def _comparisons(workloads: Sequence[Workload],
                 level: OptLevel) -> Iterator[FaultComparison]:
    """Each workload's clean baseline once, then one row per fault
    schedule checked byte-identical against it."""
    for workload in workloads:
        clean = _execute(workload, CgcmConfig(opt_level=level))
        for schedule, overrides in fault_schedules(
                workload_seed(workload.name)):
            faulted = _execute(workload,
                               CgcmConfig(opt_level=level, **overrides))
            yield FaultComparison(
                name=workload.name,
                schedule=schedule,
                baseline_s=clean.total_seconds,
                faulted_s=faulted.total_seconds,
                counters=dict(faulted.counters),
                mismatches=observable_mismatches(
                    clean, faulted, f"under the {schedule} schedule"))


def run_fault_bench(workloads: Optional[List[Workload]] = None,
                    level: OptLevel = OptLevel.OPTIMIZED,
                    progress=None) -> FaultReport:
    """The chaos sweep; ``progress`` is an optional per-row callback."""
    if workloads is None:
        workloads = ALL_WORKLOADS
    return FaultReport().collect(_comparisons(workloads, level), progress)
