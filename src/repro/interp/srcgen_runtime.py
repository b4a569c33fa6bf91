"""Run-time support of srcgen's emitted code: the objects a compiled
variant's namespace binds, each made by a ``(machine, memory) -> value``
recipe (see ``srcgen._CODE_CACHE``) -- the codec fallbacks of checked
sites, the launch-time segment cover of proven ones, and the direct
dispatch of calls."""

from __future__ import annotations

from ..errors import CgcmUnsupportedError, InterpError
from ..memory.flatmem import round_f32
from .externals import call_cost
from .machine import _trunc_div_float, _trunc_div_int


def _make_slow_load(memory, codec, i1: bool):
    """Codec fallback for one load shape; returns (value, segment)."""
    size = codec.size
    unpack_from = codec.unpack_from
    if i1:
        def slow_load(address):
            segment, offset = memory.scalar_span(address, size)
            return unpack_from(segment.data, offset)[0] & 1, segment
    else:
        def slow_load(address):
            segment, offset = memory.scalar_span(address, size)
            return unpack_from(segment.data, offset)[0], segment
    return slow_load


def _const(value):
    """Builder for a machine-independent baked object."""
    def build(machine, memory):
        return value
    return build


#: The recipes of the names every variant may read (see
#: ``srcgen._SourceCompiler.builders``), made once.
_BUILDERS = {
    "M": lambda m, mem: m,
    "_call": lambda m, mem: m.call,
    "_launch": lambda m, mem: m.launch_evaluated,
    "_IE": _const(InterpError),
    "_CUE": _const(CgcmUnsupportedError),
    "_tdi": _const(_trunc_div_int),
    "_tdf": _const(_trunc_div_float),
    "_rf32": _const(round_f32),
    "_INF": _const(float("inf")),
    "_NINF": _const(float("-inf")),
    "_NAN": _const(float("nan")),
}
_GUARD_BUILDERS = {
    "_pw": lambda m, mem: m.writeback_guard[0],
    "_wg": lambda m, mem: m.writeback_guard[1],
}


def _on_device_stack(machine, memory):
    return machine.device.memory.segment("device-stack").contains


def _make_pure_external(machine, name: str):
    """Direct positional dispatch for one pure-math external.

    The handler is resolved once at instantiation (the built-in
    table is populated at machine creation, and nothing re-registers
    pure externals afterwards -- the runtime only wraps the
    memory-touching ones); the modelled cost is charged by the
    caller's fused segment, so the handler's ``positional`` function
    is bound itself, one Python call per call site.
    """
    handler = machine.externals.get(name)
    if handler is None:
        def missing(*args):
            raise InterpError(f"call to undefined external @{name}")
        return missing
    return handler.positional


def _make_external_thunk(machine, name: str, gpu: bool):
    """A direct-dispatch thunk for one external callee that is not
    :func:`_pure_call`.

    Mirrors ``Machine.call`` -> ``Machine._call_external`` exactly --
    externals run in the caller's frame, consume no call depth, and
    charge their modelled cost before the handler runs -- but resolves
    the mode branch and the kernel-safety check at codegen time: every
    external a kernel may call is pure, so in a kernel the thunk only
    raises, after the same missing-handler test.  The handler itself
    is looked up per call: the runtime registers its entry points into
    ``machine.externals`` after machine creation.
    """
    externals = machine.externals
    if gpu:
        def thunk(*args):
            if externals.get(name) is None:
                raise InterpError(f"call to undefined external @{name}")
            raise InterpError(f"kernel called host-only external @{name}")
        return thunk
    cost = call_cost(name)

    def thunk(*args):
        handler = externals.get(name)
        if handler is None:
            raise InterpError(f"call to undefined external @{name}")
        machine._pending_cpu_ops += cost
        return handler(machine, args)
    return thunk


def _make_call_thunk(machine, callee):
    """A direct-dispatch thunk for one *defined* callee.

    :meth:`Machine.call` with the variant lookup cached: the callee's
    compiled body is re-resolved only when the armed hook set changes,
    preserving the hook-set-identity cache contract (a variant
    compiled for one mode only ever runs in that mode:
    :meth:`Machine.compiled_for` selects variants by the live mode,
    and ``launch_evaluated`` restores it on every exit path).  While
    the callee is cold every call asks again, and a call that finds it
    still cold tree-walks it.  Either way :meth:`Machine.activate`
    runs it, with the depth check and the frame bookkeeping.
    """
    activate = machine.activate
    state = [None, None]  # [hook-set snapshot, compiled body]

    def thunk(*args):
        hooks = machine.mem_hooks
        if state[0] != hooks:
            code = machine.compiled_for(callee)
            if code is None:
                return activate(callee, args)
            state[0], state[1] = list(hooks), code
        return activate(callee, args, state[1])
    return thunk


def _make_cover(memory):
    """Launch-time segment lookup for a grid variant's bounds proofs:
    ``cover(lo, hi, base, mask)`` is the segment whose allocated bytes
    hold ``[lo, hi)``, provided ``base - segment.base`` has no bit of
    ``mask`` set, else None.  Only segments whose capacity is a
    multiple of 8 qualify: their growth keeps the typed views armed,
    so the segment a launch proved stays indexable for all of it."""
    segments = [segment for segment in memory.segments
                if not segment.capacity & 7]

    def cover(lo, hi, base, mask):
        for segment in segments:
            if segment.base <= lo and hi <= segment.base + segment.hi1 + 1:
                return None if (base - segment.base) & mask else segment
        return None
    return cover


def _make_slow_store(memory, codec):
    """Codec fallback for one store shape (value pre-wrapped);
    returns the located segment."""
    size = codec.size
    pack_into = codec.pack_into
    if codec.format == "<f":
        def slow_store(address, value):
            segment, offset = memory.scalar_span(address, size)
            pack_into(segment.data, offset, round_f32(value))
            return segment
    else:
        def slow_store(address, value):
            segment, offset = memory.scalar_span(address, size)
            pack_into(segment.data, offset, value)
            return segment
    return slow_store
