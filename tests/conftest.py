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


#: How a map/unmap entry point runs: the sync entry, its async twin on
#: a streams machine, and its async twin on a serial machine (where it
#: must behave exactly like the sync entry).
RUNTIME_MODES = ("sync", "async-streams", "async-serial")


class RuntimeHarness:
    """A machine plus runtime whose entry points are called the way
    compiled code calls them: through ``machine.externals``, by name --
    the sync entry in mode ``sync``, its async twin otherwise
    (``release``/``releaseArray`` have no twin)."""

    def __init__(self, mode: str, source: str, run: bool = False):
        self.mode = mode
        self.machine = Machine(compile_minic(source),
                               streams=mode == "async-streams")
        self.runtime = CgcmRuntime(self.machine)
        self.runtime.declare_all_globals()
        if run:
            self.machine.run()
        #: ``op_hooks`` events as (stage, op, ptr), in order.
        self.events = []
        self.runtime.op_hooks.append(
            lambda stage, op, ptr, info: self.events.append((stage, op, ptr)))
        self._twin = "" if mode == "sync" else "Async"

    def __repr__(self) -> str:
        return f"<RuntimeHarness {self.mode}>"

    def _call(self, name: str, ptr: int):
        return self.machine.externals[name](self.machine, [ptr])

    def map(self, ptr: int) -> int:
        return self._call("map" + self._twin, ptr)

    def unmap(self, ptr: int) -> None:
        self._call("unmap" + self._twin, ptr)

    def release(self, ptr: int) -> None:
        self._call("release", ptr)

    def map_array(self, ptr: int) -> int:
        return self._call("mapArray" + self._twin, ptr)

    def unmap_array(self, ptr: int) -> None:
        self._call("unmapArray" + self._twin, ptr)

    def release_array(self, ptr: int) -> None:
        self._call("releaseArray", ptr)

    def observables(self):
        """Clock lane totals, counters and the op-hook event list."""
        clock = self.machine.clock
        return clock.totals(), dict(clock.counters), self.events


def runtime_modes(source: str, run: bool = False):
    """Yield one :class:`RuntimeHarness` per mode in
    :data:`RUNTIME_MODES` for a test body to drive.  After the last
    body finished, the serial async run must have produced exactly the
    sync run's clock totals, counters and op-hook events."""
    harnesses = {}
    for mode in RUNTIME_MODES:
        harnesses[mode] = RuntimeHarness(mode, source, run)
        yield harnesses[mode]
    assert harnesses["async-serial"].observables() == \
        harnesses["sync"].observables()


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
