"""Differential oracle: CPU-only vs CGCM-managed GPU, byte for byte.

The strongest correctness statement this repository can make about
CGCM is *semantic transparency*: a program transformed for the GPU
must be observationally identical to its CPU-only interpretation.
This module executes a workload twice --

* **reference**: the untransformed module, CPU-only interpretation;
* **subject**: the module through the full CGCM pipeline at the
  requested level, with the communication sanitizer armed --

and compares everything observable byte-for-byte: exit code, stdout,
and the final bytes of every program-visible global.  The result
bundles the comparison with the sanitizer's violation report, so a
single :meth:`DifferentialReport.ok` check covers "the answer is
right" *and* "the communication that produced it was sound".

Exposed on the command line as ``python -m repro sanitize`` and to
the test-suite through the ``differential_oracle`` fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.compiler import (CgcmCompiler, ExecutionResult,
                             capture_globals_image)
from ..core.config import CgcmConfig, OptLevel
from ..errors import ReproError
from ..gpu.timing import CostModel
from ..interp.machine import Machine
from ..ir.module import Module
from ..runtime.cgcm import CgcmRuntime
from ..workloads import Workload, get_workload
from .sanitizer import CommSanitizer
from .violations import SanitizerReport, SanitizerViolation


@dataclass
class DifferentialReport:
    """Outcome of one CPU-vs-GPU differential run."""

    name: str
    level: str
    match: bool
    mismatches: Tuple[str, ...]
    sanitizer: SanitizerReport
    #: Set when the subject run died on a ReproError; the sanitizer
    #: report above still covers everything observed before the crash.
    error: Optional[str] = None
    reference: Optional[ExecutionResult] = None
    subject: Optional[ExecutionResult] = None

    @property
    def violations(self) -> Tuple[SanitizerViolation, ...]:
        return self.sanitizer.violations

    @property
    def ok(self) -> bool:
        return self.match and self.error is None and self.sanitizer.clean

    def summary(self) -> str:
        lines = [f"{self.name} [{self.level}]: "
                 f"{'OK' if self.ok else 'FAIL'}"]
        if self.error:
            lines.append(f"  subject run crashed: {self.error}")
        lines.extend(f"  mismatch: {m}" for m in self.mismatches)
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def run_differential(source: str, name: str = "program",
                     level: OptLevel = OptLevel.OPTIMIZED,
                     cost_model: Optional[CostModel] = None,
                     engine: str = "source") -> DifferentialReport:
    """Compile ``source`` once per side and compare the two runs."""
    if level == OptLevel.SEQUENTIAL:
        raise ValueError(
            "differential subject must be a parallelized level; "
            "sequential is the reference side")
    cost_model = cost_model if cost_model is not None else CostModel()

    reference_compiler = CgcmCompiler(
        CgcmConfig(opt_level=OptLevel.SEQUENTIAL, cost_model=cost_model,
                   engine=engine))
    reference_compiled = reference_compiler.compile_source(source, name)
    reference = _execute_reference(reference_compiled.module,
                                   reference_compiler.config)

    subject_compiler = CgcmCompiler(
        CgcmConfig(opt_level=level, cost_model=cost_model,
                   engine=engine))
    compiled = subject_compiler.compile_source(source, name)
    subject, sanitizer_report, error = _execute_sanitized(
        compiled.module, subject_compiler.config)

    if error is None:
        assert subject is not None
        mismatches = tuple(_compare(reference, subject))
    else:
        mismatches = ()
    return DifferentialReport(
        name=name, level=level.value,
        match=error is None and not mismatches,
        mismatches=mismatches, sanitizer=sanitizer_report, error=error,
        reference=reference, subject=subject)


def run_differential_workload(workload, level: OptLevel = OptLevel.OPTIMIZED,
                              cost_model: Optional[CostModel] = None,
                              engine: str = "source"
                              ) -> DifferentialReport:
    """Differential run of a named benchmark (or a Workload object)."""
    if not isinstance(workload, Workload):
        workload = get_workload(workload)
    return run_differential(workload.source, workload.name, level,
                            cost_model, engine)


def _execute_reference(module: Module,
                       config: CgcmConfig) -> ExecutionResult:
    """Run the untransformed module as the reference side.

    Unlike a plain sequential :meth:`CgcmCompiler.execute`, the
    reference machine carries a (passive) run-time library with all
    globals declared, so manual-mode programs that call
    ``map``/``unmap``/``release`` themselves are interpretable on
    both sides of the differential.  Programs without such calls run
    entirely on the CPU, exactly as before.
    """
    machine = Machine(module, config.cost_model, config.record_events,
                      engine=config.engine)
    runtime = CgcmRuntime(machine)
    runtime.declare_all_globals()
    exit_code = machine.run()
    return ExecutionResult.from_machine(
        machine, exit_code, capture_globals_image(machine, module))


def _execute_sanitized(module: Module, config: CgcmConfig):
    """Run the transformed module under the sanitizer.

    Unlike :meth:`CgcmCompiler.execute`, this survives a crashing
    subject: the sanitizer report and the machine state accumulated
    before the error are still returned, so a seeded bug that faults
    mid-run does not hide the violations that led up to it.
    """
    machine = Machine(module, config.cost_model, config.record_events,
                      engine=config.engine)
    runtime = CgcmRuntime(machine) if config.parallelize else None
    sanitizer = CommSanitizer(machine, runtime)
    error: Optional[str] = None
    result: Optional[ExecutionResult] = None
    try:
        exit_code = machine.run()
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    report = sanitizer.finish()
    if error is None:
        result = ExecutionResult.from_machine(
            machine, exit_code, capture_globals_image(machine, module),
            report)
    return result, report, error


def _compare(reference: ExecutionResult,
             subject: ExecutionResult) -> List[str]:
    """Byte-for-byte observable comparison; returns mismatch lines."""
    mismatches: List[str] = []
    if reference.exit_code != subject.exit_code:
        mismatches.append(
            f"exit code: reference {reference.exit_code}, "
            f"subject {subject.exit_code}")
    if reference.stdout != subject.stdout:
        mismatches.append(_stdout_diff(reference.stdout, subject.stdout))
    names = sorted(set(reference.globals_image)
                   | set(subject.globals_image))
    for name in names:
        ref_bytes = reference.globals_image.get(name)
        sub_bytes = subject.globals_image.get(name)
        if ref_bytes is None or sub_bytes is None:
            side = "reference" if ref_bytes is None else "subject"
            mismatches.append(f"global {name}: missing on {side} side")
        elif ref_bytes != sub_bytes:
            offset = next(i for i, (a, b)
                          in enumerate(zip(ref_bytes, sub_bytes))
                          if a != b) if len(ref_bytes) == len(sub_bytes) \
                else min(len(ref_bytes), len(sub_bytes))
            mismatches.append(
                f"global {name}: bytes differ at offset {offset} "
                f"(size {len(ref_bytes)} vs {len(sub_bytes)})")
    return mismatches


def _stdout_diff(reference: Tuple[str, ...],
                 subject: Tuple[str, ...]) -> str:
    if len(reference) != len(subject):
        return (f"stdout: {len(reference)} line(s) on reference side, "
                f"{len(subject)} on subject side")
    for index, (ref_line, sub_line) in enumerate(zip(reference, subject)):
        if ref_line != sub_line:
            return (f"stdout line {index}: reference {ref_line!r}, "
                    f"subject {sub_line!r}")
    return "stdout: differs"
