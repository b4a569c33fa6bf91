"""Tests for the doubly-indirect (array) run-time variants.

Each test drives the entry points in every mode of
:data:`tests.conftest.RUNTIME_MODES`: ``mapArray``/``unmapArray`` and
their async twins on a streams machine and on a serial one."""

import struct

import pytest

from repro.errors import CgcmRuntimeError, CgcmUnsupportedError
from repro.ir import I8, RAW_PTR
from tests.conftest import runtime_modes

#: words[3] -> three heap strings, set up by running main's prologue.
JAGGED = r"""
char *words[3];
int main(void) {
    for (int i = 0; i < 3; i++) {
        words[i] = (char *) malloc(8);
        words[i][0] = 'a' + i;
        words[i][1] = 0;
    }
    return 0;
}
"""


def jagged_modes():
    return runtime_modes(JAGGED, run=True)


class TestMapArray:
    def test_translates_every_element(self):
        for rt in jagged_modes():
            machine = rt.machine
            device_array = rt.map_array(machine.global_address("words"))
            raw = machine.device.memory.read(device_array, 24)
            device_ptrs = struct.unpack("<3Q", raw)
            for i, device_ptr in enumerate(device_ptrs):
                text = machine.device.memory.read(device_ptr, 2)
                assert text == bytes([ord('a') + i, 0])

    def test_null_elements_stay_null(self):
        for rt in runtime_modes("char *xs[2]; int main(void) { return 0; }"):
            machine = rt.machine
            device_array = rt.map_array(machine.global_address("xs"))
            assert struct.unpack(
                "<2Q", machine.device.memory.read(device_array, 16)) == (0, 0)

    def test_cpu_copy_keeps_host_pointers(self):
        """mapArray must not scribble device pointers into CPU memory."""
        for rt in jagged_modes():
            machine = rt.machine
            base = machine.global_address("words")
            before = machine.cpu_memory.read(base, 24)
            rt.map_array(base)
            assert machine.cpu_memory.read(base, 24) == before

    def test_element_refcounts_bumped_once(self):
        for rt in jagged_modes():
            machine, runtime = rt.machine, rt.runtime
            base = machine.global_address("words")
            rt.map_array(base)
            rt.map_array(base)  # second map: array refcount only
            element = machine.cpu_memory.load_scalar(base, RAW_PTR)
            assert runtime.info_for(element).ref_count == 1
            assert runtime.info_for(base).ref_count == 2

    def test_triple_indirection_rejected(self):
        """CGCM restriction: max two degrees of indirection."""
        source = r"""
        char **outer[2];
        char *inner[2];
        int main(void) { return 0; }
        """
        for rt in runtime_modes(source):
            machine = rt.machine
            outer = machine.global_address("outer")
            inner = machine.global_address("inner")
            rt.map_array(inner)  # inner is a *currently mapped* array
            machine.cpu_memory.store_scalar(outer, RAW_PTR, inner)
            with pytest.raises(CgcmUnsupportedError, match="indirection"):
                rt.map_array(outer)


class TestUnmapReleaseArray:
    def test_unmap_array_updates_elements(self):
        for rt in jagged_modes():
            machine, runtime = rt.machine, rt.runtime
            base = machine.global_address("words")
            device_array = rt.map_array(base)
            first_device = struct.unpack(
                "<Q", machine.device.memory.read(device_array, 8))[0]
            machine.device.memory.store_scalar(first_device, I8, ord('z'))
            runtime.global_epoch += 1
            rt.unmap_array(base)
            first_host = machine.cpu_memory.load_scalar(base, RAW_PTR)
            assert machine.cpu_memory.load_scalar(first_host, I8) == ord('z')
            # Under streams every element's write-back is deferred: one
            # pending entry per element unit, keyed by its base.
            elements = machine.cpu_memory.read_u64_array(base, 3)
            expected = set(elements) if rt.mode == "async-streams" else set()
            assert set(runtime._pending_writebacks) == expected

    def test_release_array_frees_elements_and_array(self):
        for rt in jagged_modes():
            machine = rt.machine
            base = machine.global_address("words")
            rt.map_array(base)
            # Three heap strings on the device heap; the pointer array
            # itself is a global, living in the module's named region.
            assert machine.device.live_allocations == 3
            rt.release_array(base)
            assert machine.device.live_allocations == 0

    def test_release_array_below_zero_fails(self):
        for rt in jagged_modes():
            base = rt.machine.global_address("words")
            with pytest.raises(CgcmRuntimeError, match="below zero"):
                rt.release_array(base)

    def test_nested_release_order(self):
        for rt in jagged_modes():
            machine = rt.machine
            base = machine.global_address("words")
            rt.map_array(base)
            rt.map_array(base)
            rt.release_array(base)
            # Elements still mapped: array refcount was 2.
            assert machine.device.live_allocations == 3
            rt.release_array(base)
            assert machine.device.live_allocations == 0
