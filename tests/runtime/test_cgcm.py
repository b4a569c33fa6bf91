"""Tests for the CGCM run-time library semantics (paper Algorithms 1-3).

The map/unmap/release tests drive each entry point in every mode of
:data:`tests.conftest.RUNTIME_MODES`: the sync entry, and its async
twin on a streams machine and on a serial one."""

import struct

import pytest

from repro.errors import CgcmRuntimeError
from repro.frontend import compile_minic
from repro.interp import Machine
from repro.ir import F64
from repro.runtime import CgcmRuntime
from tests.conftest import runtime_modes

EMPTY_MAIN = "int main(void) { return 0; }"
G2 = "double g[2]; int main(void) {return 0;}"
G4 = "double g[4]; int main(void) {return 0;}"


class TestMap:
    def test_map_copies_unit_to_device(self):
        for rt in runtime_modes(G4):
            machine = rt.machine
            base = machine.global_address("g")
            machine.cpu_memory.write(base, struct.pack("<4d", 1, 2, 3, 4))
            device_ptr = rt.map(base)
            assert machine.device.memory.read(device_ptr, 32) == \
                struct.pack("<4d", 1, 2, 3, 4)

    def test_interior_pointer_keeps_offset(self):
        for rt in runtime_modes(G4):
            base = rt.machine.global_address("g")
            rt.map(base)
            rt.release(base)
            d_interior = rt.map(base + 24)
            assert d_interior - rt.runtime.info_for(base).device_ptr == 24

    def test_aliases_map_to_single_device_unit(self):
        """Paper: multiple maps of one unit yield one GPU allocation."""
        for rt in runtime_modes(G4):
            base = rt.machine.global_address("g")
            first = rt.map(base)
            second = rt.map(base + 8)
            assert second == first + 8
            assert rt.runtime.info_for(base).ref_count == 2
            assert rt.machine.clock.counters.get("htod_copies") == 1

    def test_map_untracked_pointer_fails(self):
        for rt in runtime_modes(EMPTY_MAIN):
            with pytest.raises(CgcmRuntimeError, match="tracked"):
                rt.map(0x7000_0100)  # unregistered stack address

    def test_heap_allocations_are_tracked_automatically(self):
        for rt in runtime_modes(EMPTY_MAIN):
            machine = rt.machine
            address = machine.heap.malloc(64)
            machine.notify_heap("malloc", address, 64)
            info = rt.runtime.info_for(address + 10)
            assert info.base == address
            assert info.size == 64

    def test_remap_after_release_recopies(self):
        for rt in runtime_modes(G2):
            machine = rt.machine
            base = machine.global_address("g")
            rt.map(base)
            rt.release(base)
            machine.cpu_memory.store_scalar(base, F64, 42.0)
            device_ptr = rt.map(base)
            assert machine.device.memory.load_scalar(device_ptr, F64) == 42.0


class TestUnmapEpochs:
    def test_unmap_without_launch_skips_copy(self):
        for rt in runtime_modes(G2):
            base = rt.machine.global_address("g")
            rt.map(base)
            before = rt.machine.clock.counters.get("dtoh_copies", 0)
            rt.unmap(base)
            assert rt.machine.clock.counters.get("dtoh_copies", 0) == before

    def test_unmap_copies_once_per_epoch(self):
        """Paper Algorithm 2: at most one DtoH per unit per epoch."""
        for rt in runtime_modes(G2):
            base = rt.machine.global_address("g")
            rt.map(base)
            rt.runtime.global_epoch += 1  # simulate a kernel launch
            rt.unmap(base)
            rt.unmap(base)
            rt.unmap(base)
            assert rt.machine.clock.counters.get("dtoh_copies", 0) == 1

    def test_read_only_units_never_copy_back(self):
        for rt in runtime_modes(
                "const double g[2] = {1.0, 2.0}; int main(void) {return 0;}"):
            base = rt.machine.global_address("g")
            rt.map(base)
            rt.runtime.global_epoch += 1
            rt.unmap(base)
            assert rt.machine.clock.counters.get("dtoh_copies", 0) == 0

    def test_unmap_reflects_device_writes(self):
        for rt in runtime_modes(G2):
            machine = rt.machine
            base = machine.global_address("g")
            device_ptr = rt.map(base)
            machine.device.memory.store_scalar(device_ptr, F64, 7.5)
            rt.runtime.global_epoch += 1
            rt.unmap(base)
            assert machine.cpu_memory.load_scalar(base, F64) == 7.5


class TestRelease:
    def test_release_frees_at_zero(self):
        for rt in runtime_modes(G2):
            base = rt.machine.global_address("g")
            rt.map(base)
            rt.map(base)
            rt.release(base)
            assert rt.runtime.info_for(base).ref_count == 1
            rt.release(base)
            assert rt.runtime.info_for(base).ref_count == 0

    def test_release_below_zero_fails(self):
        for rt in runtime_modes(G2):
            base = rt.machine.global_address("g")
            with pytest.raises(CgcmRuntimeError, match="below zero"):
                rt.release(base)

    def test_heap_unit_device_buffer_freed(self):
        for rt in runtime_modes(EMPTY_MAIN):
            machine = rt.machine
            address = machine.heap.malloc(32)
            machine.notify_heap("malloc", address, 32)
            rt.map(address)
            assert machine.device.live_allocations == 1
            rt.release(address)
            assert machine.device.live_allocations == 0

    def test_globals_never_freed_on_device(self):
        """Paper Algorithm 3: "it is not legal to free a global"."""
        for rt in runtime_modes(G2):
            base = rt.machine.global_address("g")
            rt.map(base)
            rt.release(base)
            # Re-mapping still resolves to the module's named region.
            again = rt.map(base)
            assert again == rt.machine.device.module_get_global("g")


class TestLifetimeErrors:
    def test_free_while_mapped_fails(self):
        for rt in runtime_modes(EMPTY_MAIN):
            machine = rt.machine
            address = machine.heap.malloc(16)
            machine.notify_heap("malloc", address, 16)
            rt.map(address)
            with pytest.raises(CgcmRuntimeError, match="still mapped"):
                machine.notify_heap("free", address, 0)

    def test_free_after_release_is_fine(self):
        for rt in runtime_modes(EMPTY_MAIN):
            machine = rt.machine
            address = machine.heap.malloc(16)
            machine.notify_heap("malloc", address, 16)
            rt.map(address)
            rt.release(address)
            machine.notify_heap("free", address, 0)
            machine.heap.free(address)
            with pytest.raises(CgcmRuntimeError):
                rt.runtime.info_for(address)


class TestDeclareAlloca:
    def test_stack_registration_expires_with_frame(self):
        source = r"""
        long helper(void) {
            char *p = declareAlloca(32);
            p[0] = 'x';
            return (long) p;
        }
        int main(void) {
            long address = helper();
            return 0;
        }
        """
        machine = Machine(compile_minic(source))
        runtime = CgcmRuntime(machine)
        runtime.declare_all_globals()
        machine.run()
        # After helper returned, the registration is gone.
        assert all(not (info.frame_id is not None)
                   for info in runtime.alloc_map.values())

    def test_escaping_mapped_stack_var_faults_on_return(self):
        source = r"""
        long helper(void) {
            char *p = declareAlloca(32);
            map(p);
            return 0;
        }
        int main(void) { return (int) helper(); }
        """
        machine = Machine(compile_minic(source))
        runtime = CgcmRuntime(machine)
        runtime.declare_all_globals()
        with pytest.raises(CgcmRuntimeError, match="left scope"):
            machine.run()
