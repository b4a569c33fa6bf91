"""Property tests: typed-view segment access == struct codecs.

The source engine's emitted loads and stores index the
memoryview-backed segment views on their aligned in-bounds fast path
and fall back to the ``struct.Struct`` codecs everywhere else; the
tree-walker keeps the codecs.  Hypothesis holds srcgen's emitted
access byte-equivalent to the codecs for every scalar and pointer
type, including unaligned addresses, and the cross-address-space slice
copies to the bytes they were given.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.interp import Machine
from repro.interp.srcgen import compile_function_source
from repro.ir import (F32, F64, FunctionType, I1, I8, I16, I32, I64,
                      IRBuilder, Module, RAW_PTR, VOID, pointer_to)
from repro.memory import make_cpu_memory
from repro.memory.flatmem import copy_across, round_f32, scalar_struct
from repro.memory.layout import HEAP_BASE

SCALAR_TYPES = (I1, I8, I16, I32, I64, F32, F64, RAW_PTR)

_INT_BITS = {I1: 1, I8: 8, I16: 16, I32: 32, I64: 64}

#: Where a warm-up access points an emitted site at the heap segment,
#: clear of the accesses under test.
_WARM = HEAP_BASE + 384


def _values_for(type_):
    if type_ in _INT_BITS:
        bits = _INT_BITS[type_]
        return st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1) \
            if bits == 64 else st.integers(min_value=-(2 ** bits),
                                           max_value=2 ** bits - 1)
    if type_ is RAW_PTR:
        return st.integers(min_value=0, max_value=2 ** 64 - 1)
    if type_ is F32:
        return st.floats(width=32, allow_nan=False)
    return st.floats(allow_nan=False)


@st.composite
def typed_accesses(draw):
    type_ = draw(st.sampled_from(SCALAR_TYPES))
    # Deliberately misaligned offsets included: the typed view must
    # fall back to the codec path and still produce identical bytes.
    offset = draw(st.integers(min_value=0, max_value=257))
    value = draw(_values_for(type_))
    return type_, HEAP_BASE + offset, value


def _access_module(type_) -> Module:
    """``put(p, v)`` stores a ``type_`` value at ``p``; ``get(p)``
    loads one."""
    module = Module("views")
    pointer = pointer_to(type_)
    put = module.add_function("put", FunctionType(VOID, [pointer, type_]),
                              ["p", "v"])
    builder = IRBuilder(put.new_block("entry"))
    builder.store(put.args[1], put.args[0])
    builder.ret()
    get = module.add_function("get", FunctionType(type_, [pointer]), ["p"])
    builder = IRBuilder(get.new_block("entry"))
    builder.ret(builder.load(get.args[0]))
    return module


_MODULES = {type_: _access_module(type_) for type_ in SCALAR_TYPES}


def emitted_access(type_, warm: bool):
    """(memory, put, get): srcgen's unhooked CPU variants of ``put``
    and ``get`` on a fresh machine.  Their sites start on another
    segment, so a first access takes the codec path; ``warm`` first
    points both at the heap segment with an access that allocates its
    first 512 bytes, so an aligned access under test takes the typed
    view."""
    module = _MODULES[type_]
    machine = Machine(module, engine="source")
    memory = machine.cpu_memory
    put, get = (compile_function_source(machine,
                                        module.get_function(name),
                                        "cpu", False)
                for name in ("put", "get"))
    if warm:
        put((_WARM, 0))
        get((_WARM,))
        heap = memory.segment("heap")
        assert len(heap.data) == 512
        assert put.__kwdefaults__["_cc"] == get.__kwdefaults__["_cc"] \
            == [heap]
    return memory, put, get


def same_value(a, b) -> bool:
    return math.isnan(a) and math.isnan(b) \
        if isinstance(a, float) and math.isnan(a) else a == b


@given(typed_accesses(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_emitted_store_matches_codec_store(access, warm):
    type_, address, value = access
    size = scalar_struct(type_).size
    legacy = make_cpu_memory()
    memory, put, get = emitted_access(type_, warm)
    legacy.store_scalar(address, type_, value)
    put((address, value))
    assert memory.read(address, size) == legacy.read(address, size)
    # ... and both decoders agree on the decoded value as well.
    assert same_value(legacy.load_scalar(address, type_), get((address,)))


@given(st.floats(allow_nan=False))
@example(3.4028234663852886e38)   # largest binary32
@example(3.4028235677973366e38)   # halfway to 2**128: rounds to inf
@example(-1e300)
@settings(max_examples=300, deadline=None)
def test_f32_codec_store_rounds_like_the_typed_view(value):
    """Every f64 value, in binary32 range or not: the codec store
    rounds through ``round_f32`` to the bytes of the typed view's C
    cast, overflowing to +/-inf instead of raising."""
    legacy = make_cpu_memory()
    memory, put, _ = emitted_access(F32, warm=True)
    legacy.store_scalar(HEAP_BASE, F32, value)
    put((HEAP_BASE, value))
    assert legacy.read(HEAP_BASE, 4) == memory.read(HEAP_BASE, 4)
    assert legacy.load_scalar(HEAP_BASE, F32) == round_f32(value)


@given(typed_accesses(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_emitted_load_matches_codec_load(access, warm):
    type_, address, value = access
    memory, _, get = emitted_access(type_, warm)
    memory.store_scalar(address, type_, value)
    assert same_value(memory.load_scalar(address, type_), get((address,)))


@given(payload=st.binary(min_size=0, max_size=300),
       src_offset=st.integers(min_value=0, max_value=129),
       dst_offset=st.integers(min_value=0, max_value=129))
@settings(max_examples=200, deadline=None)
def test_copy_across_round_trip(payload, src_offset, dst_offset):
    """Cross-unit slice transfers move exactly the bytes written,
    at arbitrary (unaligned) offsets, in both directions."""
    host = make_cpu_memory()
    device = make_cpu_memory()
    host.write(HEAP_BASE + src_offset, payload)
    copy_across(host, HEAP_BASE + src_offset,
                device, HEAP_BASE + dst_offset, len(payload))
    assert device.read(HEAP_BASE + dst_offset, len(payload)) == payload
    # Round-trip back into a different spot of the source space.
    back = HEAP_BASE + src_offset + 512
    copy_across(device, HEAP_BASE + dst_offset, host, back,
                len(payload))
    assert host.read(back, len(payload)) == payload


@given(st.integers(min_value=0, max_value=63),
       st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1),
                min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_read_u64_array_matches_scalar_loads(offset, values):
    memory = make_cpu_memory()
    base = HEAP_BASE + offset * 8
    for i, value in enumerate(values):
        memory.store_scalar(base + 8 * i, I64, value)
    array = memory.read_u64_array(base, len(values))
    expected = [memory.load_scalar(base + 8 * i, I64) & (2 ** 64 - 1)
                for i in range(len(values))]
    assert [v & (2 ** 64 - 1) for v in array] == expected
