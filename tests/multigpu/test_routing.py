"""How the runtime drives the multi-GPU coordinator.

The runtime calls the coordinator directly where routing or coherence
state changes: a first map homes its unit and routes the upload onto
the home's comm lane, every unmap of a homed unit routes its write-back
and waits for the home copy, and the last release of a heap unit drops
its home.  ``CgcmRuntime.op_hooks`` is left to observers, which see the
same ``(stage, op, ptr)`` stream as on one device.  Launch operands are
found per launch: a pointer array's host elements are re-read on every
launch, and a global declared after a kernel's first launch is an
operand of its next one.
"""

import pytest

from repro.core import CgcmCompiler, CgcmConfig
from repro.frontend.lowering import compile_minic
from repro.gpu.timing import LANE_COMM
from repro.gpu.topology import Topology
from repro.interp import Machine
from repro.multigpu import MultiGpuCoordinator, plan_placement
from repro.runtime import CgcmRuntime
from repro.sanitizer import CommSanitizer
from repro.workloads import get_workload

#: Four 32-byte globals: with no plan, each homes on its own device.
FOUR_GLOBALS = """
double a[4];
double b[4];
double c[4];
double d[4];
int main(void) { return 0; }
"""


def manual(source, topology=Topology.ring(4), record_events=True):
    """A streams machine plus runtime and coordinator, globals declared."""
    machine = Machine(compile_minic(source), streams=True,
                      record_events=record_events)
    runtime = CgcmRuntime(machine)
    runtime.declare_all_globals()
    coordinator = MultiGpuCoordinator(machine, runtime, topology)
    return machine, runtime, coordinator


def call(machine, name, ptr):
    return machine.externals[name](machine, [ptr])


def recorded_run(workload, topology):
    """The compiler's wiring with a recorder and the sanitizer on the
    op hooks; returns the recorded ``(stage, op, ptr)`` stream and the
    sanitizer report."""
    config = CgcmConfig(streams=True)
    report = CgcmCompiler(config).compile_source(workload.source,
                                                 workload.name)
    machine = Machine(report.module, streams=True)
    runtime = CgcmRuntime(machine)
    if topology is not None:
        MultiGpuCoordinator(machine, runtime, topology,
                            plan_placement(report.module, topology))
    events = []
    runtime.op_hooks.append(
        lambda stage, op, ptr, info: events.append((stage, op, ptr)))
    sanitizer = CommSanitizer(machine, runtime)
    machine.run()
    machine.clock.device_synchronize()
    return events, sanitizer.finish()


class TestRouting:
    def test_op_hooks_carry_observers_only(self):
        machine, runtime, _ = manual(FOUR_GLOBALS)
        assert runtime.op_hooks == []
        sanitizer = CommSanitizer(machine, runtime)
        assert runtime.op_hooks == [sanitizer._on_op]

    @pytest.mark.parametrize("name", ("cfd", "gemm", "srad"))
    def test_observed_stream_equals_one_device(self, name):
        workload = get_workload(name)
        single, single_report = recorded_run(workload, None)
        multi, multi_report = recorded_run(workload, Topology.ring(4))
        assert single and multi == single
        assert single_report.clean and multi_report.clean

    @pytest.mark.parametrize("entry", ("map", "mapAsync"))
    def test_first_map_uploads_on_home_comm_lane(self, entry):
        machine, runtime, coordinator = manual(FOUR_GLOBALS)
        topology = coordinator.topology
        homes = set()
        for name in "abcd":
            base = machine.global_address(name)
            before = len(machine.clock.events)
            call(machine, entry, base)
            home = coordinator._homes[base].home
            homes.add(home)
            uploads = [e for e in machine.clock.events[before:]
                       if e.label.startswith("HtoD")]
            assert [e.lane for e in uploads] == [topology.comm_lane(home)]
            assert machine.device.comm_lane == LANE_COMM
        assert homes == {0, 1, 2, 3}

    def test_pointer_array_elements_route_to_their_homes(self):
        machine, runtime, coordinator = manual(POINTER_ARRAY)
        homes = {}
        coordinator.hooks.append(
            lambda event, payload: event == "place" and homes.setdefault(
                payload["unit"].name, payload["device"]))
        machine.run()
        assert machine.device.comm_lane == LANE_COMM
        uploads = [e.lane for e in machine.clock.events
                   if e.label.startswith("HtoD")]
        # The elements upload inside the array's map, before the array.
        assert uploads == [coordinator.topology.comm_lane(homes[name])
                           for name in ("a", "b", "rows", "c")]
        assert len(set(homes.values())) > 1

    def test_unmap_without_writeback_waits_for_home_copy(self):
        machine, runtime, coordinator = manual(FOUR_GLOBALS)
        clock = machine.clock
        base = machine.global_address("b")
        call(machine, "mapAsync", base)
        state = coordinator._homes[base]
        ready = state.ready[state.home]
        assert clock.host_time_s < ready
        copies = clock.counters.get("dtoh_copies", 0)
        call(machine, "unmapAsync", base)
        assert clock.counters.get("dtoh_copies", 0) == copies
        assert clock.host_time_s == ready

    def test_last_release_of_heap_unit_drops_its_home(self):
        machine, runtime, coordinator = manual(FOUR_GLOBALS)
        base = call(machine, "malloc", 64)
        call(machine, "map", base)
        call(machine, "map", base)
        home = coordinator._homes[base].home
        assert coordinator._loads[home] == 64
        call(machine, "release", base)
        assert base in coordinator._homes
        call(machine, "release", base)
        assert base not in coordinator._homes
        assert coordinator._loads[home] == 0


#: A mapped pointer array whose host element is rewritten between two
#: launches.  The device payload keeps the first translation, but
#: operand discovery re-reads the host array on every launch.
POINTER_ARRAY = """
double a[4];
double b[4];
double c[4];
double *rows[2];
__global__ void k(long tid, double **r) { r[0][tid] = r[1][tid] + 1.0; }
int main(void) {
    rows[0] = a;
    rows[1] = b;
    double **d = (double **) mapArray((char *) rows);
    map((char *) c);
    __launch(k, 4, d);
    rows[1] = c;
    __launch(k, 4, d);
    return 0;
}
"""

#: A kernel reading two globals, ``g`` declared only after the first
#: launch.
LATE_GLOBAL = """
double g[4];
double h[4];
__global__ void k(long tid) { h[tid] = g[tid] + 1.0; }
int main(void) {
    map((char *) h);
    __launch(k, 4);
    declareGlobal("g", (char *) g, 32, 0);
    map((char *) g);
    __launch(k, 4);
    return 0;
}
"""


def launch_reads(source, declare=True):
    machine = Machine(compile_minic(source), streams=True)
    runtime = CgcmRuntime(machine)
    if declare:
        runtime.declare_all_globals()
    else:
        runtime.declare_global("h", machine.global_address("h"), 32)
    coordinator = MultiGpuCoordinator(machine, runtime, Topology.ring(2))
    reads = []
    coordinator.hooks.append(
        lambda event, payload: event == "launch" and reads.append(
            [info.name for info in payload["reads"]]))
    machine.run()
    return reads


class TestOperands:
    def test_host_store_into_mapped_pointer_array(self):
        assert launch_reads(POINTER_ARRAY) == [
            ["rows", "a", "b"], ["rows", "a", "c"]]

    def test_global_declared_after_first_launch(self):
        assert launch_reads(LATE_GLOBAL, declare=False) == [
            ["h"], ["g", "h"]]
