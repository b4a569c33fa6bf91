"""The streams write-back guard: it fires, and only in host code.

Under streams, ``unmapAsync`` leaves the unit's DtoH copy in flight and
the runtime arms ``Machine.writeback_guard``, so host code touching the
region first waits for the copy.  Two seeded corpus programs touch a
pending region before their ``cgcmSync``: one with a load, one with a
store.  On every engine, with and without the sanitizer, the guard must
drain the write-back at that access, and every run must land on the
same observables and clocks.  Kernel code is never guarded: device
addresses cannot overlap a host region.
"""

import pytest

from repro.frontend import compile_minic
from repro.interp import Machine
from repro.runtime import CgcmRuntime
from repro.sanitizer import CommSanitizer
from repro.staticcheck.corpus import CORPUS

ENGINES = ("tree", "compiled", "source")
SOURCES = {defect.name: defect.source for defect in CORPUS}

#: Control: ``cgcmSync`` drains the write-back before the host reads.
CONTROL = r"""
double A[8];
__global__ void scale(long tid) { A[tid] = A[tid] * 2.0; }
int main(void) {
    for (int i = 0; i < 8; i++) A[i] = i + 1;
    mapAsync((char *) A);
    __launch(scale, 8);
    unmapAsync((char *) A);
    cgcmSync();
    print_f64(A[0]);
    release((char *) A);
    return 0;
}
"""


def streams_machine(source, engine, sanitize=False):
    machine = Machine(compile_minic(source), engine=engine, streams=True)
    runtime = CgcmRuntime(machine)
    runtime.declare_all_globals()
    sanitizer = CommSanitizer(machine, runtime) if sanitize else None
    return machine, runtime, sanitizer


def guarded_run(source, engine, sanitize=False):
    """One streams run.  Returns its observables and clocks, the host
    accesses at which the guard drained every pending write-back, the
    runtime's ``guard_syncs`` and the sanitizer's statistics."""
    machine, runtime, sanitizer = streams_machine(source, engine, sanitize)
    pending, guard = machine.writeback_guard
    drains = []

    def recording_guard(m, kind, address, size):
        guard(m, kind, address, size)
        if not pending:
            drains.append((kind, address - m.global_address("A")))

    machine.writeback_guard = (pending, recording_guard)
    exit_code = machine.run()
    machine.clock.device_synchronize()
    observed = (exit_code, machine.stdout, machine.read_global("A"),
                machine.clock.totals(), machine.clock.critical_path_s,
                machine.executed_instructions)
    stats = sanitizer.finish().stats if sanitizer else None
    return observed, drains, runtime.guard_syncs, stats


@pytest.mark.parametrize("name,kind", [("async-use-before-sync", "load"),
                                       ("async-ww-conflict", "store")])
def test_guard_drains_at_the_host_access(name, kind):
    runs = {(engine, sanitize): guarded_run(SOURCES[name], engine, sanitize)
            for engine in ENGINES for sanitize in (False, True)}
    reference = runs["tree", False]
    for (engine, sanitize), (observed, drains, syncs, stats) in runs.items():
        label = f"{engine}, sanitize={sanitize}"
        assert observed == reference[0], label
        # The access to A[0] drained the write-back, so the later
        # cgcmSync found nothing in flight: one synchronize in all.
        assert drains == [(kind, 0)], label
        assert syncs == 1, label
        if sanitize:
            assert stats == runs["tree", True][3], label


def test_control_drains_at_cgcm_sync():
    """``guard_syncs`` reads 1 here too: only the drain site differs."""
    for engine in ENGINES:
        observed, drains, syncs, _ = guarded_run(CONTROL, engine)
        assert drains == [] and syncs == 1, engine
        assert observed[1] == ["2"], engine


@pytest.mark.parametrize("sanitize", [False, True],
                         ids=["plain", "sanitized"])
def test_only_host_code_is_guarded(sanitize):
    machine, _, _ = streams_machine(SOURCES["async-use-before-sync"],
                                    "source", sanitize)
    host = machine.compiled_for(machine.module.get_function("main"))
    machine.mode = "gpu"
    device = machine.compiled_for(machine.module.get_function("scale"))
    machine.mode = "cpu"
    assert host.guarded and "_wg(M, \"load\"" in host.source
    assert "_wg(M, \"store\"" in host.source
    assert not device.guarded and "_wg" not in device.source
    # Only an observer selects the hook-calling variant.
    assert host.hooked == device.hooked == sanitize
