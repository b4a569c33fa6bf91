"""Property tests: typed-view segment access == struct codecs.

The source engine's fast path reads and writes scalars through the
memoryview-backed segment views (``load_typed``/``store_typed`` and
the per-site inline caches built on the same layout); the
tree-walker keeps the legacy ``struct.Struct`` codecs.  Hypothesis
holds the two byte-equivalent for every scalar and pointer type,
including unaligned addresses and cross-address-space slice copies.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir import F32, F64, I1, I8, I16, I32, I64, RAW_PTR
from repro.memory import make_cpu_memory
from repro.memory.flatmem import copy_across, round_f32, scalar_struct
from repro.memory.layout import HEAP_BASE

SCALAR_TYPES = (I1, I8, I16, I32, I64, F32, F64, RAW_PTR)

_INT_BITS = {I1: 1, I8: 8, I16: 16, I32: 32, I64: 64}


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


@given(typed_accesses())
@settings(max_examples=300, deadline=None)
def test_store_typed_matches_codec_store(access):
    type_, address, value = access
    size = scalar_struct(type_).size
    legacy = make_cpu_memory()
    typed = make_cpu_memory()
    legacy.store_scalar(address, type_, value)
    typed.store_typed(address, type_, value)
    assert typed.read(address, size) == legacy.read(address, size)
    # ... and both decoders agree on the decoded value as well.
    decoded_codec = legacy.load_scalar(address, type_)
    decoded_view = typed.load_typed(address, type_)
    if isinstance(decoded_codec, float) and math.isnan(decoded_codec):
        assert math.isnan(decoded_view)
    else:
        assert decoded_view == decoded_codec


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
    typed = make_cpu_memory()
    for memory in (legacy, typed):
        memory.write(HEAP_BASE, bytes(8))  # arms the typed views
    legacy.store_scalar(HEAP_BASE, F32, value)
    typed.store_typed(HEAP_BASE, F32, value)
    assert legacy.read(HEAP_BASE, 4) == typed.read(HEAP_BASE, 4)
    assert legacy.load_scalar(HEAP_BASE, F32) == round_f32(value)


@given(typed_accesses())
@settings(max_examples=300, deadline=None)
def test_load_typed_matches_codec_load(access):
    type_, address, value = access
    memory = make_cpu_memory()
    memory.store_scalar(address, type_, value)
    via_codec = memory.load_scalar(address, type_)
    via_view = memory.load_typed(address, type_)
    if isinstance(via_codec, float) and math.isnan(via_codec):
        assert math.isnan(via_view)
    else:
        assert via_view == via_codec


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
