"""Global layout and initializer serialization tests."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CgcmCompiler, CgcmConfig
from repro.errors import MemoryFault
from repro.frontend.lowering import compile_minic
from repro.interp import Machine
from repro.ir import (ArrayType, GlobalRef, Module, StructType, F32, F64, I1,
                      I8, I16, I32, I64, RAW_PTR, pointer_to)
from repro.memory import (GLOBALS_BASE, GlobalLayout, initializer_bytes,
                          make_cpu_memory)


def resolve_nothing(name):
    raise AssertionError(f"unexpected global reference {name}")


class TestInitializerBytes:
    def test_zero_fill(self):
        assert initializer_bytes(ArrayType(F64, 2), None,
                                 resolve_nothing) == b"\x00" * 16

    def test_scalar_int(self):
        assert initializer_bytes(I64, 7, resolve_nothing) == \
            struct.pack("<q", 7)

    def test_scalar_wraps(self):
        assert initializer_bytes(I8, 300, resolve_nothing) == \
            struct.pack("<b", 44)

    def test_float(self):
        assert initializer_bytes(F64, 2.5, resolve_nothing) == \
            struct.pack("<d", 2.5)

    def test_string_nul_terminated_and_padded(self):
        data = initializer_bytes(ArrayType(I8, 8), "hi", resolve_nothing)
        assert data == b"hi\x00" + b"\x00" * 5

    def test_string_overflow_rejected(self):
        with pytest.raises(MemoryFault):
            initializer_bytes(ArrayType(I8, 2), "hi", resolve_nothing)

    def test_array_of_scalars_partial_init(self):
        data = initializer_bytes(ArrayType(I64, 4), [1, 2], resolve_nothing)
        assert data == struct.pack("<4q", 1, 2, 0, 0)

    def test_nested_arrays(self):
        data = initializer_bytes(ArrayType(ArrayType(I64, 2), 2),
                                 [[1, 2], [3, 4]], resolve_nothing)
        assert data == struct.pack("<4q", 1, 2, 3, 4)

    def test_global_ref_resolution(self):
        data = initializer_bytes(ArrayType(pointer_to(I8), 2),
                                 [GlobalRef("a"), GlobalRef("a", 3)],
                                 lambda name: 0x1000)
        assert data == struct.pack("<2Q", 0x1000, 0x1003)

    def test_struct_with_padding(self):
        struct_type = StructType("s", [("tag", I8), ("x", F64)])
        data = initializer_bytes(struct_type, [1, 2.0], resolve_nothing)
        assert len(data) == struct_type.size
        assert data[0] == 1
        assert struct.unpack_from("<d", data, 8)[0] == 2.0

    def test_too_many_array_items_rejected(self):
        with pytest.raises(MemoryFault):
            initializer_bytes(ArrayType(I64, 1), [1, 2], resolve_nothing)


SCALAR_TYPES = (I1, I8, I16, I32, I64, F32, F64, RAW_PTR)


@given(st.sampled_from(SCALAR_TYPES),
       st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(),
                          st.booleans()), max_size=12),
       st.integers(0, 3))
@settings(max_examples=300, deadline=None)
@example(F32, [1.5, 3.5e38, -1e39, 1e300], 1)      # f32 overflow -> +/-inf
@example(I8, [300, -129, 2 ** 64 + 5, 127], 0)    # integer wrap
@example(I64, [1, float("nan")], 0)               # unconvertible item
@example(RAW_PTR, [1, -1], 0)                     # pointer out of range
def test_array_encoding_matches_per_element_encoding(element, items, pad):
    """An array of scalars encodes as its elements' encodings, in
    order, plus zero padding -- or raises what they raise."""
    array = ArrayType(element, len(items) + pad)
    try:
        expected = b"".join(initializer_bytes(element, item, resolve_nothing)
                            for item in items) + bytes(pad * element.size)
    except Exception as error:  # noqa: BLE001 -- compared by type below
        with pytest.raises(Exception) as raised:
            initializer_bytes(array, items, resolve_nothing)
        assert type(raised.value) is type(error)
    else:
        assert initializer_bytes(array, items, resolve_nothing) == expected


class TestGlobalLayout:
    def test_addresses_are_disjoint_and_aligned(self):
        module = Module("m")
        module.add_global("a", I8)
        module.add_global("b", ArrayType(F64, 3))
        module.add_global("c", I64)
        layout = GlobalLayout(module)
        items = layout.items()
        for name, address, _ in items:
            assert address % 8 == 0
        spans = sorted((addr, addr + size) for _, addr, size in items)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_install_writes_images(self):
        module = Module("m")
        module.add_global("nums", ArrayType(I64, 3), [10, 20, 30])
        module.add_global("text", ArrayType(I8, 4), "ab")
        layout = GlobalLayout(module)
        memory = make_cpu_memory()
        layout.install(memory)
        base = layout.address_of("nums")
        assert memory.load_scalar(base + 8, I64) == 20
        assert memory.read_c_string(layout.address_of("text")) == b"ab"

    def test_cross_global_pointer_initializer(self):
        module = Module("m")
        module.add_global("target", ArrayType(I8, 4), "hey")
        module.add_global("ptr", pointer_to(I8), GlobalRef("target", 1))
        layout = GlobalLayout(module)
        memory = make_cpu_memory()
        layout.install(memory)
        stored = memory.load_scalar(layout.address_of("ptr"),
                                    pointer_to(I8))
        assert stored == layout.address_of("target") + 1


#: A program that rewrites its initialized globals, so a run starting
#: from anything but the pristine image prints something else.
REWRITES_GLOBALS = """
char *names[] = {"alpha", "beta"};
long counts[3] = {1, 2, 3};
int main(void) {
    print_str(names[0]);
    print_i64(counts[2]);
    names[0] = names[1];
    counts[2] = counts[2] + 10;
    return 0;
}
"""


class TestArtifactImage:
    def test_runs_of_one_artifact_start_from_identical_bytes(self):
        compiler = CgcmCompiler(CgcmConfig())
        report = compiler.compile_source(REWRITES_GLOBALS, "rewrites")
        first = compiler.execute(report)
        layout = report.layout
        second = compiler.execute(report)
        assert report.layout is layout
        assert first.stdout == second.stdout == ("alpha", "3")
        assert first.globals_image == second.globals_image
        # The shared image is what a fresh layout of the module encodes,
        # the GlobalRef slots of ``names`` included.
        shared = Machine(report.module, layout=layout).cpu_memory
        fresh = Machine(report.module).cpu_memory
        span = (GLOBALS_BASE, layout.end - GLOBALS_BASE)
        assert shared.read(*span) == fresh.read(*span)
        (slot,) = struct.unpack("<Q", shared.read(
            layout.address_of("names"), 8))
        assert shared.read_c_string(slot) == b"alpha"

    def test_machine_from_module_installs_current_globals(self):
        module = compile_minic(REWRITES_GLOBALS)
        Machine(module)
        module.add_global("late", ArrayType(I64, 2), [7, 8])
        machine = Machine(module)
        address = machine.layout.address_of("late")
        assert machine.cpu_memory.load_scalar(address + 8, I64) == 8
