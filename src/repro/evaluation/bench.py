"""Interpreter benchmark: the two execution engines, head to head.

Runs the full 24-workload sweep under the tree-walking reference
interpreter and the tiered source engine (``source``), asserting
along the way that the source engine is observationally identical to
the tree-walker -- same stdout, exit code, final global bytes,
dynamic instruction count, and *exactly* equal simulated-clock
totals -- and records the wall-clock numbers as the repo's perf
trajectory in ``BENCH_interp.json``.

Timing discipline: each engine runs ``repeat`` times per workload
and the **median** wall-clock is kept (with the min/max spread
recorded per workload), so one cold run or scheduler hiccup cannot
skew the headline number; the cyclic GC is paused inside the timed
region (and run to completion just before it, ``timeit``-style) so
garbage from one engine's run is never billed to the next.  The headline ``geomean_speedup`` is the
source engine versus the tree-walker.

Exposed as ``python -m repro bench`` (no workload arguments) and to
the test-suite through the ``bench``-marked tests in
``tests/bench/``.  Divergence between the engines is always an
error; raw speed never gates CI.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.compiler import CgcmCompiler, ExecutionResult
from ..core.config import CgcmConfig, OptLevel
from ..interp.machine import ENGINES
from ..workloads import ALL_WORKLOADS, Workload
from .figure4 import geomean
from .sweep import SweepReport, SweepRow

#: Schema tag for BENCH_interp.json (bump on incompatible change).
BENCH_SCHEMA = "repro-bench-interp/3"


@dataclass
class EngineComparison(SweepRow):
    """All engines' runs of one workload, with the timing numbers."""

    name: str
    #: Median wall-clock per engine over the sweep's repeats.
    wall_s: Dict[str, float]
    #: (min, max) wall-clock spread per engine.
    spread_s: Dict[str, Tuple[float, float]]
    instructions: int
    sim_seconds: float
    mismatches: Tuple[str, ...] = ()

    @property
    def speedup(self) -> float:
        """Tree-walker wall-clock over the source engine's (median
        over median)."""
        wall = self.wall_s["source"]
        if wall <= 0:
            return float("inf")
        return self.wall_s["tree"] / wall

    def insts_per_s(self, engine: str) -> float:
        wall = self.wall_s[engine]
        if wall <= 0:
            return float("inf")
        return self.instructions / wall

    def summary(self) -> str:
        return f"{self.name:16s} {self.speedup:6.2f}x  {self.status}"

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "wall_s": {engine: round(self.wall_s[engine], 6)
                       for engine in ENGINES},
            "spread_s": {engine: [round(self.spread_s[engine][0], 6),
                                  round(self.spread_s[engine][1], 6)]
                         for engine in ENGINES},
            "speedup": round(self.speedup, 4),
            "instructions": self.instructions,
            "source_insts_per_s": round(self.insts_per_s("source")),
            "sim_seconds": self.sim_seconds,
            "mismatches": list(self.mismatches),
        }


@dataclass
class BenchReport(SweepReport):
    """The whole sweep: per-workload comparisons plus the geomean."""

    schema = BENCH_SCHEMA
    committed_path = "BENCH_interp.json"
    rows_key = "workloads"

    level: str
    repeat: int
    rows: List[EngineComparison] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        """The headline geomean: source engine over the tree-walker."""
        return geomean(c.speedup for c in self.rows if c.ok)

    def headline(self) -> Dict:
        return {"level": self.level, "engine": "source",
                "engines": list(ENGINES), "repeat": self.repeat,
                "geomean_speedup": round(self.geomean_speedup, 4)}

    def render(self) -> str:
        lines = [f"{'workload':16s} {'tree':>9s} {'source':>9s} "
                 f"{'speedup':>8s} {'Minsts/s':>9s}"]
        for c in self.rows:
            status = "" if c.ok else "  DIVERGED"
            lines.append(
                f"{c.name:16s} {c.wall_s['tree']:8.3f}s "
                f"{c.wall_s['source']:8.3f}s "
                f"{c.speedup:7.2f}x "
                f"{c.insts_per_s('source') / 1e6:9.2f}{status}")
        lines.append(f"{'geomean':16s} {'':9s} {'':9s} "
                     f"{self.geomean_speedup:7.2f}x")
        return "\n".join(lines)


def compare_engines(result_tree: ExecutionResult,
                    result_other: ExecutionResult) -> Tuple[str, ...]:
    """Every observable difference between two engines' runs (the
    first argument is the tree-walker oracle)."""
    mismatches: List[str] = []
    if result_tree.exit_code != result_other.exit_code:
        mismatches.append(
            f"exit code: tree {result_tree.exit_code}, "
            f"other {result_other.exit_code}")
    if result_tree.stdout != result_other.stdout:
        mismatches.append("stdout differs")
    if result_tree.globals_image != result_other.globals_image:
        names = sorted(
            name for name in set(result_tree.globals_image)
            | set(result_other.globals_image)
            if result_tree.globals_image.get(name)
            != result_other.globals_image.get(name))
        mismatches.append(f"final global bytes differ: {names}")
    tree_clock = (result_tree.cpu_seconds, result_tree.gpu_seconds,
                  result_tree.comm_seconds)
    other_clock = (result_other.cpu_seconds,
                   result_other.gpu_seconds,
                   result_other.comm_seconds)
    if tree_clock != other_clock:
        mismatches.append(f"simulated clock: tree {tree_clock}, "
                          f"other {other_clock}")
    if result_tree.critical_path_seconds \
            != result_other.critical_path_seconds:
        mismatches.append(
            f"critical path: tree {result_tree.critical_path_seconds}, "
            f"other {result_other.critical_path_seconds}")
    if result_tree.counters != result_other.counters:
        mismatches.append("clock counters differ")
    if result_tree.instructions != result_other.instructions:
        mismatches.append(
            f"instruction count: tree {result_tree.instructions}, "
            f"other {result_other.instructions}")
    return tuple(mismatches)


def bench_workload(workload: Workload,
                   level: OptLevel = OptLevel.OPTIMIZED,
                   repeat: int = 1) -> EngineComparison:
    """Compile once, run under every engine, time the executions.

    Each engine runs ``repeat`` times; the median wall-clock is kept
    and the min/max spread recorded.  The equivalence checks run on
    every non-tree run against the tree-walker's result.
    """
    compiler = CgcmCompiler(CgcmConfig(opt_level=level))
    report = compiler.compile_source(workload.source, workload.name)
    repeat = max(1, repeat)
    walls: Dict[str, List[float]] = {e: [] for e in ENGINES}
    results: Dict[str, ExecutionResult] = {}
    mismatches: Tuple[str, ...] = ()
    gc_was_enabled = gc.isenabled()
    for engine in ENGINES:
        for _ in range(repeat):
            # timeit's discipline: collect outside the timed region,
            # pause the collector inside it, so garbage carried over
            # from a previous engine's run cannot bill a GC pause to
            # this one.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = compiler.execute(report, engine=engine)
                walls[engine].append(time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
            results[engine] = result
            if engine != "tree":
                found = compare_engines(results["tree"], result)
                if found and not mismatches:
                    mismatches = tuple(f"{engine}: {m}" for m in found)
    tree_result = results["tree"]
    return EngineComparison(
        name=workload.name,
        wall_s={e: statistics.median(walls[e]) for e in ENGINES},
        spread_s={e: (min(walls[e]), max(walls[e])) for e in ENGINES},
        instructions=tree_result.instructions,
        sim_seconds=tree_result.total_seconds,
        mismatches=mismatches)


def run_engine_bench(workloads: Optional[List[Workload]] = None,
                     level: OptLevel = OptLevel.OPTIMIZED,
                     repeat: int = 1,
                     progress=None) -> BenchReport:
    """The full sweep; ``progress`` is an optional per-row callback."""
    if workloads is None:
        workloads = ALL_WORKLOADS
    return BenchReport(level.value, repeat).collect(
        (bench_workload(w, level, repeat) for w in workloads), progress)
