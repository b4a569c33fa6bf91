"""Per-benchmark evaluation runner: the four configurations of §6.

For one workload, runs

* ``sequential``         -- the untransformed CPU-only program (the
  paper's baseline: "best sequential CPU-only execution"),
* ``inspector-executor`` -- DOALL parallelization with the idealized
  IE communication model,
* ``unoptimized``        -- DOALL + CGCM communication management,
* ``optimized``          -- management + glue kernels, alloca
  promotion, map promotion,

checks that all four produce identical observable output, and returns
the modelled timing breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..baselines.applicability import ProgramApplicability, analyze_module
from ..baselines.inspector_executor import InspectorExecutorMachine
from ..core.compiler import CgcmCompiler, ExecutionResult
from ..core.config import CgcmConfig, OptLevel
from ..errors import ReproError
from ..frontend import compile_minic
from ..gpu.timing import CostModel
from ..transforms import DoallParallelizer
from ..workloads import Workload

CONFIGURATIONS = ("sequential", "inspector-executor", "unoptimized",
                  "optimized")


@dataclass
class BenchmarkResult:
    """Everything measured for one workload."""

    workload: Workload
    results: Dict[str, ExecutionResult]
    kernel_count: int
    glue_kernel_count: int
    applicability: ProgramApplicability

    def speedup(self, configuration: str) -> float:
        """Whole-program speedup over sequential CPU-only execution."""
        baseline = self.results["sequential"].total_seconds
        return baseline / self.results[configuration].total_seconds

    def breakdown(self, configuration: str) -> Tuple[float, float, float]:
        """(gpu%, comm%, cpu%) of total time, as percentages."""
        result = self.results[configuration]
        total = result.total_seconds
        if total <= 0:
            return (0.0, 0.0, 0.0)
        return (100.0 * result.gpu_seconds / total,
                100.0 * result.comm_seconds / total,
                100.0 * result.cpu_seconds / total)

    @property
    def limiting_factor(self) -> str:
        """:func:`limiting_factor` of the optimized configuration."""
        return limiting_factor(self.results["optimized"])


def limiting_factor(result: ExecutionResult) -> str:
    """The paper's classification of one run by its largest lane: GPU,
    Comm., or Other (CPU/IO)."""
    gpu, comm, cpu = (result.gpu_seconds, result.comm_seconds,
                      result.cpu_seconds)
    if gpu >= comm and gpu >= cpu:
        return "GPU"
    if comm >= gpu and comm >= cpu:
        return "Comm."
    return "Other"


def run_benchmark(workload: Workload,
                  cost_model: Optional[CostModel] = None,
                  check: bool = True) -> BenchmarkResult:
    """Run one workload through all four configurations."""
    cost_model = cost_model if cost_model is not None else CostModel()
    results: Dict[str, ExecutionResult] = {}
    kernel_count = 0
    glue_count = 0
    applicability: Optional[ProgramApplicability] = None

    for level in (OptLevel.SEQUENTIAL, OptLevel.UNOPTIMIZED,
                  OptLevel.OPTIMIZED):
        compiler = CgcmCompiler(CgcmConfig(opt_level=level,
                                           cost_model=cost_model))
        report = compiler.compile_source(workload.source, workload.name)
        results[level.value] = compiler.execute(report)
        if level == OptLevel.OPTIMIZED:
            kernel_count = len(report.doall_kernels)
            glue_count = len(report.glue_kernels)
        if level == OptLevel.UNOPTIMIZED:
            applicability = analyze_module(report.module)

    results["inspector-executor"] = _run_inspector_executor(
        workload, cost_model)

    if check:
        expected = results["sequential"].stdout
        for name, result in results.items():
            if result.stdout != expected:
                raise ReproError(
                    f"{workload.name}: configuration {name!r} produced "
                    f"{result.stdout!r}, expected {expected!r}")

    assert applicability is not None
    return BenchmarkResult(workload, results, kernel_count, glue_count,
                           applicability)


def _run_inspector_executor(workload: Workload,
                            cost_model: CostModel) -> ExecutionResult:
    module = compile_minic(workload.source, workload.name)
    DoallParallelizer(module).run()
    machine = InspectorExecutorMachine(module, cost_model)
    exit_code = machine.run()
    return ExecutionResult.from_machine(machine, exit_code)


def run_all(workloads, cost_model: Optional[CostModel] = None,
            check: bool = True) -> List[BenchmarkResult]:
    """Run a list of workloads; returns results in input order."""
    return [run_benchmark(w, cost_model, check) for w in workloads]
