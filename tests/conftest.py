"""Shared fixtures and helpers for the repro test-suite."""

from __future__ import annotations

import pytest

from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.frontend import compile_minic
from repro.interp import Machine
from repro.interp.machine import hot_ratio
from repro.runtime import CgcmRuntime


def run_source(source: str, opt_level: OptLevel = OptLevel.SEQUENTIAL,
               record_events: bool = False):
    """Compile MiniC at a level and execute it; returns ExecutionResult."""
    config = CgcmConfig(opt_level=opt_level, record_events=record_events)
    compiler = CgcmCompiler(config)
    report = compiler.compile_source(source)
    return compiler.execute(report)


def machine_for(source: str, with_runtime: bool = False) -> Machine:
    """A machine for untransformed MiniC source (manual-mode tests)."""
    module = compile_minic(source)
    machine = Machine(module)
    if with_runtime:
        runtime = CgcmRuntime(machine)
        runtime.declare_all_globals()
    return machine


@pytest.fixture
def compile_all():
    """The source engine compiles every function on its first entry
    (``HOT_RATIO = 0``), so tests of srcgen's contracts exercise
    srcgen instead of its cold tree-walked tier."""
    with hot_ratio(0):
        yield


@pytest.fixture
def differential_oracle():
    """CPU-vs-GPU differential runner with the sanitizer armed.

    Yields a callable: ``differential_oracle(source_or_workload)``
    returns a :class:`repro.sanitizer.DifferentialReport`; tests
    assert on ``report.ok`` / ``report.violations``.
    """
    from repro.sanitizer import (run_differential,
                                 run_differential_workload)
    from repro.workloads import Workload

    def run(target, level: OptLevel = OptLevel.OPTIMIZED):
        if isinstance(target, Workload) or "\n" not in target.strip():
            return run_differential_workload(target, level)
        return run_differential(target, level=level)

    return run


@pytest.fixture
def simple_kernel_module():
    """A module with one kernel that doubles an 8-element global."""
    return compile_minic(r"""
        double A[8];

        __global__ void scale(long tid, double *a) {
            a[tid] = a[tid] * 2.0;
        }

        int main(void) {
            for (int i = 0; i < 8; i++) A[i] = i + 1;
            double *d = (double *) map((char *) A);
            __launch(scale, 8, d);
            unmap((char *) A);
            release((char *) A);
            double s = 0.0;
            for (int i = 0; i < 8; i++) s += A[i];
            print_f64(s);
            return 0;
        }
    """)
