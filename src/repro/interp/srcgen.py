"""Source-compiled execution engine ("Engine v2").

The closure engine (:mod:`repro.interp.codegen`) removed the
tree-walker's isinstance dispatch but still pays one Python *call* per
dynamic instruction plus register-list traffic around it.  This module
goes the rest of the way down the PyCUDA run-time code-generation
road: each IR function is translated **once per (mode, hook-set,
guarded)** into real Python source, ``compile()``-d, ``exec``-d, and
cached on the machine.

* **Registers are locals.**  Arguments unpack into ``a0..aN``,
  instruction results assign ``r0..rN``; every operand read is a
  ``LOAD_FAST``.  Constants, baked global addresses, and undef are
  inlined as literals.  Because locals live per activation, recursion
  and re-entrant kernels need no register-file save/restore at all.

* **Blocks are a ``while``-dispatched jump table.**  The emitted body
  is ``while True:`` over an ``if _b == k: ... elif`` chain; every
  terminator assigns the successor's dispatch index and ``continue``s.
  Dispatch positions are ordered by loop depth (innermost first) so
  hot back edges scan the shortest prefix of the chain.  Single-block
  functions skip the loop entirely.

* **Block-fused cost charging, split at flush points.**  Identical
  discipline to the closure engine: the static ``_OP_COSTS`` of each
  straight-line run are summed at compile time and emitted as one
  ``M._pending_cpu_ops += n`` (``M._gpu_ops`` in kernels), with runs
  split at ``call``/``launch`` -- the only instructions that can move
  pending ops onto the :class:`~repro.gpu.timing.SimClock` -- so every
  simulated timestamp is bit-identical to the tree-walker's.  Dynamic
  ``div``/``rem`` extras are emitted inline at their instruction.

* **Memory access compiles to typed-view indexing.**  The aligned
  in-bounds fast path is a single ``segment.vd[offset >> 3]`` typed
  index against the memoryview-backed segments of
  :mod:`repro.memory.flatmem`, guarded by one chained compare against
  the segment's live limit; everything else (segment miss, growth,
  unaligned, big-endian hosts) drops to a struct-codec slow helper
  that re-locates the segment.  The last-hit segment is cached in a
  *local* (``_cs``), not on the memory object, so the common case
  never leaves the frame.

* **Hook specialization at codegen time.**  Armed ``mem_hooks``
  select a hook-calling load/store emission (and the sanitizer then
  observes exactly the tree-walker's event stream); the unhooked
  variant emits no hook plumbing at all, so the hot path carries zero
  per-instruction hook overhead.  Variants are cached per hook-set
  identity (see ``Machine.compiled_for``).

* **Host-only write-back guard.**  Under streams the runtime arms
  ``Machine.writeback_guard``.  CPU-mode code of such a machine is
  compiled *guarded*: each load/store first runs ``if _pw: _wg(...)``
  (one truthiness test of the baked pending-write-back dict while
  nothing is in flight) and then the unchanged typed-view fast path.
  GPU-mode code is never guarded -- device addresses cannot overlap a
  host region -- so kernels keep the unhooked fast path.

The tree-walker remains the reference semantics; the equivalence
suites hold this engine to byte-identical observables and
clock-for-clock equal timestamps across the workload sweep and the
fuzz corpus.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..analysis.loops import find_loops
from ..errors import CgcmUnsupportedError, InterpError, MemoryFault
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Instruction,
                               LaunchKernel, Load, Return, Select, Store,
                               Unreachable)
from ..ir.types import ArrayType, FloatType, IntType, StructType
from ..ir.values import Constant, GlobalVariable, UndefValue, Value
from ..memory.flatmem import VIEW_ACCESS, scalar_format, scalar_struct
from .codegen import _int_params, check_definitions
from .externals import GPU_SAFE, call_cost
from .machine import (_DIV_EXTRA, _OP_COSTS, Frame, MAX_CALL_DEPTH,
                      needs_frame, _round_f32, _trunc_div_float,
                      _trunc_div_int)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INF = float("inf")
_NINF = float("-inf")

_COMPARE_OPS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                "gt": ">", "ge": ">="}
_INT_BINOPS = {"add": "+", "sub": "-", "mul": "*", "and": "&",
               "or": "|", "xor": "^"}


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


#: Emission + ``compile()`` are the dominant fixed costs for short
#: runs, and the emitted *text* for one function under one (mode,
#: hooked, guarded) key is fully deterministic -- global addresses
#: come from the module's layout, name counters from emission order.
#: Machine-bound state rides in the exec namespace, never in the code
#: object, so each cache entry stores ``(source, code object,
#: builders)`` where ``builders`` maps every baked name to a
#: ``(machine, memory) -> value`` recipe; later machines skip emission
#: and compilation and only rebuild the namespace.  Keyed weakly by
#: function so corpora of throwaway fuzz modules don't accumulate;
#: for that, no recipe may hold an IR function (callees and kernels
#: resolve by name through ``machine.module``), since every function
#: reaches its whole module and so the key.
_CODE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _const(value):
    """Builder for a machine-independent baked object."""
    def build(machine, memory):
        return value
    return build


#: Externals whose handlers only compute -- no clock advance, no
#: machine state, no stdout, no RNG.  Call sites to these bake the
#: modelled call cost into the enclosing fused segment charge (no
#: flush can occur between the segment's charge and the call) and
#: dispatch positionally, skipping the thunk and the argument list.
#: Every entry must be GPU-safe: the set bypasses the kernel check.
_PURE_EXTERNALS = frozenset({
    "sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "tan",
    "floor", "ceil", "fmax", "fmin", "abs_i64", "exp2", "atan",
})
assert _PURE_EXTERNALS <= GPU_SAFE


def _pure_call(inst) -> bool:
    """Call sites that cannot flush pending ops onto the clock."""
    return (isinstance(inst, Call) and inst.callee.is_declaration
            and inst.callee.name in _PURE_EXTERNALS)


def _make_pure_external(machine, name: str):
    """Direct positional dispatch for one pure-math external.

    The handler is resolved once at instantiation (the built-in
    table is populated at machine creation, and nothing re-registers
    pure externals afterwards -- the runtime only wraps the
    memory-touching ones); the modelled cost is charged by the
    caller's fused segment, so the wrapper is just the handler call.
    """
    handler = machine.externals.get(name)
    if handler is None:
        def missing(*args):
            raise InterpError(f"call to undefined external @{name}")
        return missing

    def call(*args):
        return handler(machine, args)
    return call


def _make_external_thunk(machine, name: str, gpu: bool):
    """A direct-dispatch thunk for one external callee.

    Mirrors ``Machine.call`` -> ``Machine._call_external`` exactly --
    externals run in the caller's frame, consume no call depth, and
    charge their modelled cost before the handler runs -- but resolves
    the mode branch and the kernel-safety check at codegen time.  The
    handler itself is looked up per call: the runtime registers its
    entry points into ``machine.externals`` after machine creation.
    """
    externals = machine.externals
    cost = call_cost(name)
    if gpu and name not in GPU_SAFE:
        def thunk(*args):
            raise InterpError(f"kernel called host-only external @{name}")
        return thunk
    if gpu:
        def thunk(*args):
            handler = externals.get(name)
            if handler is None:
                raise InterpError(f"call to undefined external @{name}")
            machine._gpu_ops += cost
            return handler(machine, args)
    else:
        def thunk(*args):
            handler = externals.get(name)
            if handler is None:
                raise InterpError(f"call to undefined external @{name}")
            machine._pending_cpu_ops += cost
            return handler(machine, args)
    return thunk


def _make_call_thunk(machine, callee, gpu: bool):
    """A direct-dispatch thunk for one *defined* callee.

    Replicates the compiled-code path of :meth:`Machine.call` --
    depth check, stack-pointer save/restore, frame push/pop, the
    ``frame_exit_hooks`` sweep -- with the mode branch resolved at
    codegen time (a variant compiled for one mode only ever runs in
    that mode: :meth:`Machine.compiled_for` selects variants by the
    live mode, and ``launch_evaluated`` restores it on every exit
    path).  The callee's compiled body is re-resolved whenever the
    armed hook set changes, preserving the hook-set-identity cache
    contract; the arity check moved to codegen (call sites have
    static operand lists).
    """
    depth_limit = MAX_CALL_DEPTH
    frame_type = Frame
    stack = machine._frame_stack
    name = callee.name
    state = [None, None]  # [hook-set snapshot, compiled body]

    if not needs_frame(callee):
        # Frame-oblivious callee (no allocas, no declareAlloca): the
        # stack pointer never moves and nothing reads the frame, so
        # skip the frame object and the push/pop -- the frame-id
        # sequencing and the exit-hook sweep stay.
        def thunk(*args):
            hooks = machine.mem_hooks
            if state[0] != hooks:
                state[1] = machine.compiled_for(callee)
                state[0] = list(hooks)
            if machine._depth >= depth_limit:
                raise InterpError(f"call depth exceeded at @{name}")
            machine._depth += 1
            machine._frame_counter += 1
            fid = machine._frame_counter
            try:
                return state[1](args)
            finally:
                for hook in machine.frame_exit_hooks:
                    hook(machine, fid)
                machine._depth -= 1
    elif gpu:
        def thunk(*args):
            hooks = machine.mem_hooks
            if state[0] != hooks:
                state[1] = machine.compiled_for(callee)
                state[0] = list(hooks)
            if machine._depth >= depth_limit:
                raise InterpError(f"call depth exceeded at @{name}")
            machine._depth += 1
            sp_base = machine._gpu_sp
            machine._frame_counter += 1
            frame = frame_type(callee, machine._frame_counter, sp_base)
            stack.append(frame)
            try:
                return state[1](args)
            finally:
                machine._gpu_sp = sp_base
                stack.pop()
                for hook in machine.frame_exit_hooks:
                    hook(machine, frame.frame_id)
                machine._depth -= 1
    else:
        def thunk(*args):
            hooks = machine.mem_hooks
            if state[0] != hooks:
                state[1] = machine.compiled_for(callee)
                state[0] = list(hooks)
            if machine._depth >= depth_limit:
                raise InterpError(f"call depth exceeded at @{name}")
            machine._depth += 1
            sp_base = machine._cpu_sp
            machine._frame_counter += 1
            frame = frame_type(callee, machine._frame_counter, sp_base)
            stack.append(frame)
            try:
                return state[1](args)
            finally:
                machine._cpu_sp = sp_base
                stack.pop()
                for hook in machine.frame_exit_hooks:
                    hook(machine, frame.frame_id)
                machine._depth -= 1
    return thunk


def _make_slow_fill(memory, size: int):
    """Zero-fill fallback for one constant-size alloca site;
    returns the located segment."""
    zeros = bytes(size)

    def slow_fill(address):
        segment, offset = memory._span(address, size)
        segment.data[offset:offset + size] = zeros
        return segment
    return slow_fill


def _make_slow_store(memory, codec):
    """Codec fallback for one store shape (value pre-wrapped);
    returns the located segment."""
    size = codec.size
    pack_into = codec.pack_into

    def slow_store(address, value):
        segment, offset = memory.scalar_span(address, size)
        pack_into(segment.data, offset, value)
        return segment
    return slow_store


class _SourceCompiler:
    """Emits and compiles Python source for one (function, mode, hooks,
    guarded)."""

    def __init__(self, machine, fn: Function, mode: str, hooked: bool,
                 guarded: bool):
        if fn.is_declaration:
            raise InterpError(f"cannot compile declaration @{fn.name}")
        if mode not in ("cpu", "gpu"):
            raise InterpError(f"cannot compile for mode {mode!r}")
        self.machine = machine
        self.fn = fn
        self.mode = mode
        self.hooked = hooked
        self.guarded = guarded
        self.memory = machine.device.memory if mode == "gpu" \
            else machine.cpu_memory
        self.charge_attr = "_gpu_ops" if mode == "gpu" \
            else "_pending_cpu_ops"
        self.names: Dict[Value, str] = {}
        self.lines: List[str] = []
        self.indent = 1
        #: exec()/default-argument namespace recipe: every non-literal
        #: object the emitted code touches, as keyword-only defaults
        #: (so access inside the function is a LOAD_FAST), each
        #: expressed as a ``(machine, memory) -> value`` builder so a
        #: cached code object can be re-instantiated on any machine.
        self.builders: Dict[str, object] = {
            "M": lambda m, mem: m,
            "_call": lambda m, mem: m.call,
            "_launch": lambda m, mem: m.launch_evaluated,
            "_fill": lambda m, mem: mem.fill,
            "_IE": _const(InterpError),
            "_CUE": _const(CgcmUnsupportedError),
            "_tdi": _const(_trunc_div_int),
            "_tdf": _const(_trunc_div_float),
            "_rf32": _const(_round_f32),
            "_INF": _const(_INF),
            "_NINF": _const(_NINF),
            "_NAN": _const(float("nan")),
        }
        self._objects: Dict[object, str] = {}
        self._helpers: Dict[tuple, str] = {}
        self._sites: List[str] = []
        #: Blocks inlined into their unique predecessor (block
        #: fusion); they get no dispatch index and their terminator's
        #: predecessor emits their body in place.
        self._inlined: set = set()
        if mode == "gpu":
            self.builders["_onds"] = lambda m, mem: \
                m.device.memory.segment("device-stack").contains
        if hooked:
            self.builders["_lds"] = lambda m, mem: mem.load_scalar
            self.builders["_sts"] = lambda m, mem: mem.store_scalar
        if guarded:
            self.builders["_pw"] = lambda m, mem: m.writeback_guard[0]
            self.builders["_wg"] = lambda m, mem: m.writeback_guard[1]

    # -- emission plumbing --------------------------------------------------

    def _emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _bake(self, prefix: str, obj: object) -> str:
        """A stable default-argument name for one baked constant."""
        key = id(obj)
        name = self._objects.get(key)
        if name is None:
            name = f"{prefix}{len(self.builders)}"
            self._objects[key] = name
            self.builders[name] = _const(obj)
        return name

    def _helper(self, prefix: str, key: tuple, build) -> str:
        """A stable default-argument name for one deduped
        ``(machine, memory) -> value`` recipe."""
        name = self._helpers.get(key)
        if name is None:
            name = f"{prefix}{len(self.builders)}"
            self.builders[name] = build
            self._helpers[key] = name
        return name

    def _slow_helper(self, kind: str, type_) -> str:
        """The deduped codec-fallback helper for one access shape."""
        codec = scalar_struct(type_)
        i1 = isinstance(type_, IntType) and type_.bits == 1
        key = (kind, codec.format, i1 if kind == "ld" else False)
        if kind == "ld":
            return self._helper(
                "_ld", key,
                lambda m, mem, c=codec, f=i1: _make_slow_load(mem, c, f))
        return self._helper(
            "_st", key, lambda m, mem, c=codec: _make_slow_store(mem, c))

    # -- operand references -------------------------------------------------

    def _literal(self, value) -> str:
        if isinstance(value, float):
            if value != value:
                return "_NAN"
            if value == _INF:
                return "_INF"
            if value == _NINF:
                return "_NINF"
            text = repr(value)
        else:
            text = repr(int(value))
        return f"({text})" if text.startswith("-") else text

    def _ref(self, value: Value) -> str:
        name = self.names.get(value)
        if name is not None:
            return name
        if isinstance(value, Constant):
            return self._literal(value.value)
        if isinstance(value, GlobalVariable):
            if self.mode == "gpu":
                address = self.machine.device.module_get_global(value.name)
            else:
                address = self.machine.layout.address_of(value.name)
            return self._literal(address)
        if isinstance(value, UndefValue):
            return "0"
        raise InterpError(
            f"@{self.fn.name}: operand {value!r} is not a constant, "
            "global, or local definition")

    # -- memory access ------------------------------------------------------

    def _site(self) -> Tuple[str, int]:
        """A fresh per-access-site segment-cache local.

        Access sites are overwhelmingly monomorphic (a given load in a
        given function keeps hitting the same segment), but *adjacent*
        sites often alternate segments -- an inner loop interleaving
        stack-slot counters with heap array elements would thrash any
        single shared cache.  Per-site locals make each site's hit
        rate independent of its neighbours, and each site's last
        segment persists across activations in the baked ``_cc`` list
        (one slot per site, re-read in the prologue) so even
        straight-line bodies called once per kernel thread start warm.
        The in-bounds guard makes a stale hint a slow-path trip, never
        a wrong access.
        """
        k = len(self._sites)
        name = f"_cs{k}"
        self._sites.append(name)
        return name, k

    def _emit_guard(self, kind: str, pointer: str, size: int) -> None:
        """The host write-back guard ahead of one access: a single
        truthiness test while no write-back is in flight."""
        if self.guarded:
            self._emit("if _pw:")
            self._emit(f"    _wg(M, \"{kind}\", {pointer}, {size})")

    def _emit_load(self, inst: Load) -> None:
        dest = self.names[inst]
        pointer = self._ref(inst.pointer)
        type_ = inst.type
        self._emit_guard("load", pointer, type_.size)
        if self.hooked:
            self._emit("for _h in M.mem_hooks:")
            self._emit(f"    _h(M, \"load\", {pointer}, {type_.size})")
            self._emit(f"{dest} = _lds({pointer}, "
                       f"{self._bake('_T', type_)})")
            return
        cs, k = self._site()
        view, hi, shift, amask = VIEW_ACCESS[scalar_format(type_)[-1]]
        i1 = isinstance(type_, IntType) and type_.bits == 1
        index = "_o" if shift == 0 else f"_o >> {shift}"
        guard = f"0 <= _o <= {cs}.{hi}" if amask == 0 else \
            f"0 <= _o <= {cs}.{hi} and not _o & {amask}"
        self._emit(f"_o = {pointer} - {cs}.base")
        self._emit(f"if {guard}:")
        self._emit(f"    {dest} = {cs}.{view}[{index}]" + (" & 1" if i1
                                                           else ""))
        self._emit("else:")
        self._emit(f"    {dest}, {cs} = "
                   f"{self._slow_helper('ld', type_)}({pointer})")
        self._emit(f"    _cc[{k}] = {cs}")

    def _emit_store(self, inst: Store) -> None:
        pointer = self._ref(inst.pointer)
        value = self._ref(inst.value)
        type_ = inst.value.type
        self._emit_guard("store", pointer, type_.size)
        if self.hooked:
            self._emit("for _h in M.mem_hooks:")
            self._emit(f"    _h(M, \"store\", {pointer}, {type_.size})")
            if self.mode == "gpu" and type_.is_pointer:
                self._emit_pointer_guard(pointer)
            self._emit(f"_sts({pointer}, {self._bake('_T', type_)}, "
                       f"{value})")
            return
        if self.mode == "gpu" and type_.is_pointer:
            self._emit_pointer_guard(pointer)
        cs, k = self._site()
        view, hi, shift, amask = VIEW_ACCESS[scalar_format(type_)[-1]]
        index = "_o" if shift == 0 else f"_o >> {shift}"
        guard = f"0 <= _o <= {cs}.{hi}" if amask == 0 else \
            f"0 <= _o <= {cs}.{hi} and not _o & {amask}"
        if isinstance(type_, FloatType):
            stored = value
        else:
            mask, high, span = _int_params(type_)
            self._emit(f"_v = {value} & {self._literal(mask)}")
            if span:
                self._emit(f"if _v > {self._literal(high)}:")
                self._emit(f"    _v -= {self._literal(span)}")
            stored = "_v"
        self._emit(f"_o = {pointer} - {cs}.base")
        self._emit(f"if {guard}:")
        self._emit(f"    {cs}.{view}[{index}] = {stored}")
        self._emit("else:")
        self._emit(f"    {cs} = {self._slow_helper('st', type_)}"
                   f"({pointer}, {stored})")
        self._emit(f"    _cc[{k}] = {cs}")

    def _emit_pointer_guard(self, pointer: str) -> None:
        self._emit(f"if not _onds({pointer}):")
        self._emit(f"    raise _CUE(\"kernel @{self.fn.name} stores a "
                   "pointer into memory (CGCM restriction)\")")

    # -- arithmetic ---------------------------------------------------------

    def _emit_wrapped(self, dest: str, raw: str, type_) -> None:
        """Assign ``raw`` wrapped into the type's range to ``dest``."""
        mask, high, span = _int_params(type_)
        if span == 0:
            self._emit(f"{dest} = {raw} & {self._literal(mask)}")
            return
        self._emit(f"_v = {raw} & {self._literal(mask)}")
        self._emit(f"{dest} = _v - {self._literal(span)} "
                   f"if _v > {self._literal(high)} else _v")

    def _emit_binop(self, inst: BinaryOp) -> None:
        dest = self.names[inst]
        a, b = self._ref(inst.lhs), self._ref(inst.rhs)
        op = inst.op
        if isinstance(inst.type, FloatType):
            if op in ("add", "sub", "mul"):
                self._emit(f"{dest} = {a} {_INT_BINOPS[op]} {b}")
            elif op == "div":
                self._emit_charge_div()
                self._emit(f"_f = {b}")
                self._emit("if _f == 0.0:")
                self._emit(f"    _g = {a}")
                self._emit(f"    {dest} = _INF if _g > 0 else "
                           "(_NINF if _g < 0 else _NAN)")
                self._emit("else:")
                self._emit(f"    {dest} = {a} / _f")
            elif op == "rem":
                self._emit_charge_div()
                self._emit(f"_f = {b}")
                self._emit("if _f == 0.0:")
                self._emit(f"    {dest} = _NAN")
                self._emit("else:")
                self._emit(f"    _g = {a}")
                self._emit(f"    {dest} = float(_g - _f * _tdf(_g, _f))")
            else:
                raise InterpError(f"float binop {op}")
            return
        if op in _INT_BINOPS:
            raw = f"({a} {_INT_BINOPS[op]} {b})"
        elif op == "div":
            self._emit_charge_div()
            raw = f"_tdi({a}, {b})"
        elif op == "rem":
            self._emit_charge_div()
            raw = f"({a} - {b} * _tdi({a}, {b}))"
        elif op == "shl":
            raw = f"({a} << ({b} & 63))"
        elif op == "shr":
            raw = f"({a} >> ({b} & 63))"
        else:
            raise InterpError(f"int binop {op}")
        self._emit_wrapped(dest, raw, inst.type)

    def _emit_charge_div(self) -> None:
        self._emit(f"M.{self.charge_attr} += {_DIV_EXTRA}")

    def _emit_cast(self, inst: Cast) -> None:
        dest = self.names[inst]
        source = self._ref(inst.value)
        kind = inst.kind
        to_type = inst.type
        if kind in ("bitcast", "inttoptr"):
            if to_type.is_pointer:
                self._emit(f"{dest} = {source} & {_MASK64}")
            else:
                self._emit(f"{dest} = {source}")
        elif kind in ("ptrtoint", "trunc", "sext"):
            self._emit_wrapped(dest, source, to_type)
        elif kind == "zext":
            src = inst.value.type
            assert isinstance(src, IntType)
            src_mask = (1 << src.bits) - 1
            self._emit_wrapped(dest, f"({source} & {src_mask})", to_type)
        elif kind in ("fptrunc", "fpext"):
            if to_type == FloatType(32):
                self._emit(f"{dest} = _rf32({source})")
            else:
                self._emit(f"{dest} = float({source})")
        elif kind == "sitofp":
            self._emit(f"{dest} = float({source})")
        elif kind == "fptosi":
            mask, high, span = _int_params(to_type)
            self._emit(f"_f = {source}")
            self._emit("if _f != _f or _f == _INF or _f == _NINF:")
            self._emit(f"    {dest} = 0")
            self._emit("else:")
            self._emit(f"    _v = int(_f) & {self._literal(mask)}")
            if span:
                self._emit(f"    {dest} = _v - {self._literal(span)} "
                           f"if _v > {self._literal(high)} else _v")
            else:
                self._emit(f"    {dest} = _v")
        else:
            raise InterpError(f"cast kind {kind}")

    def _emit_gep(self, inst: GetElementPtr) -> None:
        dest = self.names[inst]
        pointee = inst.pointer.type.pointee
        indices = inst.indices
        offset = 0
        terms: List[str] = [self._ref(inst.pointer)]

        def accumulate(index: Value, scale: int) -> None:
            nonlocal offset
            if isinstance(index, Constant):
                offset += int(index.value) * scale
            elif scale == 1:
                terms.append(self._ref(index))
            else:
                terms.append(f"{self._ref(index)} * {scale}")

        accumulate(indices[0], pointee.size)
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
                accumulate(index, current.size)
            elif isinstance(current, StructType):
                if not isinstance(index, Constant):
                    raise InterpError(
                        f"@{self.fn.name}: struct gep index must be "
                        "constant")
                field = int(index.value)
                offset += current.field_offset(field)
                current = current.fields[field][1]
            else:
                raise InterpError(f"gep into non-aggregate {current}")
        if offset:
            terms.append(self._literal(offset))
        self._emit(f"{dest} = " + " + ".join(terms))

    def _emit_alloca(self, inst: Alloca) -> None:
        dest = self.names[inst]
        count = self._ref(inst.count)
        elem_size = inst.allocated_type.size
        align = max(inst.allocated_type.align, 8)
        sp = "_gpu_sp" if self.mode == "gpu" else "_cpu_sp"
        if align & (align - 1) == 0:
            aligned = f"(M.{sp} + {align - 1}) & {-align}"
        else:
            aligned = f"(M.{sp} + {align - 1}) // {align} * {align}"
        if isinstance(inst.count, Constant):
            size = elem_size * int(inst.count.value)
            if size < 0:
                raise InterpError("alloca with negative count")
            self._emit(f"{dest} = {aligned}")
            self._emit(f"M.{sp} = {dest} + {size}")
            if size:
                # Zero the frame slot inline: a slice-assign of baked
                # zeros while the bytes are already allocated, the
                # growth/fault path otherwise.  ``hi1 + 1`` is the
                # allocated length (and the -1 disarmed value sends
                # every fill down the slow path).
                cs, k = self._site()
                helper = self._helper(
                    "_fl", ("fl", size),
                    lambda m, mem, s=size: _make_slow_fill(mem, s))
                zeros = self._bake("_Z", bytes(size))
                self._emit(f"_o = {dest} - {cs}.base")
                self._emit(f"if 0 <= _o and _o + {size} <= {cs}.hi1 + 1:")
                self._emit(f"    {cs}.data[_o:_o + {size}] = {zeros}")
                self._emit("else:")
                self._emit(f"    {cs} = {helper}({dest})")
                self._emit(f"    _cc[{k}] = {cs}")
            return
        self._emit(f"_n = {count}")
        self._emit("if _n < 0:")
        self._emit("    raise _IE(\"alloca with negative count\")")
        self._emit(f"_sz = _n * {elem_size}")
        self._emit(f"{dest} = {aligned}")
        self._emit(f"M.{sp} = {dest} + _sz")
        self._emit("if _sz:")
        self._emit(f"    _fill({dest}, _sz, 0)")

    # -- calls, launches, terminators ---------------------------------------

    def _emit_call(self, inst: Call) -> None:
        arg_list = ", ".join(self._ref(a) for a in inst.args)
        name = inst.callee.name
        gpu = self.mode == "gpu"
        if _pure_call(inst):
            # Pure-math external: direct positional dispatch; the
            # modelled cost rode in with the fused segment charge.
            callee = self._helper(
                "_p", ("p", name),
                lambda m, mem, n=name: _make_pure_external(m, n))
        elif inst.callee.is_declaration:
            # Externals dispatch through a baked per-name thunk: no
            # frame, no call depth, mode resolved at codegen time.
            callee = self._helper(
                "_x", ("x", name),
                lambda m, mem, n=name, g=gpu: _make_external_thunk(m, n, g))
        else:
            if len(inst.args) != len(inst.callee.args):
                # Static arity mismatch: defer to runtime like the
                # tree-walker (the block's charges still land first).
                message = (f"@{name}: expected "
                           f"{len(inst.callee.args)} args, got "
                           f"{len(inst.args)}")
                self._emit(f"raise _IE({message!r})")
                return
            # Resolved by name: a cached recipe holding the callee
            # would keep its module, and so the cache key, alive.
            callee = self._helper(
                "_c", ("c", name),
                lambda m, mem, n=name, g=gpu:
                _make_call_thunk(m, m.module.get_function(n), g))
        call = f"{callee}({arg_list})"
        if inst.produces_value:
            self._emit(f"{self.names[inst]} = {call}")
        else:
            self._emit(call)

    def _emit_launch(self, inst: LaunchKernel) -> None:
        kernel = self._helper(
            "_K", ("k", inst.kernel.name),
            lambda m, mem, n=inst.kernel.name: m.module.get_function(n))
        arg_list = ", ".join(self._ref(a) for a in inst.args)
        self._emit(f"_launch({kernel}, int({self._ref(inst.grid)}), "
                   f"[{arg_list}])")

    def _emit_terminator(self, inst: Instruction,
                         index: Dict[object, int]) -> None:
        if isinstance(inst, Branch):
            if inst.target in self._inlined:
                self._emit_block_body(inst.target, index)
            else:
                self._emit(f"_b = {index[inst.target]}")
                self._emit("continue")
        elif isinstance(inst, CondBranch):
            # Fused arms: a single-predecessor successor's body is
            # emitted in place of the dispatch jump.  A diamond with
            # both arms fusable nests the taken arm under the guard;
            # one fusable arm continues flat after an early-out jump.
            true_b, false_b = inst.if_true, inst.if_false
            condition = self._ref(inst.condition)
            true_in = true_b in self._inlined and true_b is not false_b
            false_in = false_b in self._inlined
            if true_in and false_in:
                self._emit(f"if {condition}:")
                self.indent += 1
                self._emit_block_body(true_b, index)
                self.indent -= 1
                self._emit_block_body(false_b, index)
            elif false_in:
                self._emit(f"if {condition}:")
                self.indent += 1
                self._emit(f"_b = {index[true_b]}")
                self._emit("continue")
                self.indent -= 1
                self._emit_block_body(false_b, index)
            elif true_in:
                self._emit(f"if not {condition}:")
                self.indent += 1
                self._emit(f"_b = {index[false_b]}")
                self._emit("continue")
                self.indent -= 1
                self._emit_block_body(true_b, index)
            else:
                self._emit(f"_b = {index[true_b]} "
                           f"if {condition} "
                           f"else {index[false_b]}")
                self._emit("continue")
        elif isinstance(inst, Return):
            if inst.value is None:
                self._emit("return None")
            else:
                self._emit(f"return {self._ref(inst.value)}")
        elif isinstance(inst, Unreachable):
            self._emit(f"raise _IE(\"reached unreachable in "
                       f"@{self.fn.name}\")")
        else:
            raise InterpError(f"cannot compile terminator {inst.opcode}")

    def _emit_inst(self, inst: Instruction,
                   index: Dict[object, int]) -> None:
        if isinstance(inst, Load):
            self._emit_load(inst)
        elif isinstance(inst, Store):
            self._emit_store(inst)
        elif isinstance(inst, GetElementPtr):
            self._emit_gep(inst)
        elif isinstance(inst, BinaryOp):
            self._emit_binop(inst)
        elif isinstance(inst, Compare):
            self._emit(f"{self.names[inst]} = "
                       f"+({self._ref(inst.lhs)} "
                       f"{_COMPARE_OPS[inst.pred]} {self._ref(inst.rhs)})")
        elif isinstance(inst, Cast):
            self._emit_cast(inst)
        elif isinstance(inst, Select):
            self._emit(f"{self.names[inst]} = "
                       f"{self._ref(inst.if_true)} "
                       f"if {self._ref(inst.condition)} "
                       f"else {self._ref(inst.if_false)}")
        elif isinstance(inst, Alloca):
            self._emit_alloca(inst)
        elif isinstance(inst, Call):
            self._emit_call(inst)
        elif isinstance(inst, LaunchKernel):
            self._emit_launch(inst)
        elif inst.is_terminator:
            self._emit_terminator(inst, index)
        else:
            raise InterpError(f"cannot compile {inst.opcode}")

    # -- block assembly -----------------------------------------------------

    def _emit_block_body(self, block, index: Dict[object, int]) -> None:
        """One block: fused-charge segments split at call/launch."""
        pending_cost = 0
        pending: List[Instruction] = []

        def flush() -> None:
            if not pending:
                return
            self._emit(f"M.{self.charge_attr} += {pending_cost}")
            self._emit(f"M.executed_instructions += {len(pending)}")
            for inst in pending:
                self._emit_inst(inst, index)

        for inst in block.instructions:
            pending_cost += _OP_COSTS.get(inst.opcode, 1)
            pending.append(inst)
            # Calls and launches are the only instructions that can
            # move pending op counts onto the clock; close the fused
            # segment at each one so the integers visible at every
            # flush match the tree-walker exactly.  Pure-math
            # externals never flush, so their modelled call cost
            # folds into the running segment instead of closing it.
            if _pure_call(inst):
                pending_cost += call_cost(inst.callee.name)
            elif isinstance(inst, (Call, LaunchKernel)):
                flush()
                pending_cost = 0
                pending = []
        flush()
        if not block.is_terminated:
            self._emit(f"raise _IE(\"block {block.name} in "
                       f"@{self.fn.name} fell through without a "
                       "terminator\")")

    def _edge_counts(self) -> Dict[object, int]:
        """Incoming edge count per block (both arms of a two-way
        branch to one target count twice)."""
        preds: Dict[object, int] = {}
        for block in self.fn.blocks:
            for inst in block.instructions:
                if isinstance(inst, Branch):
                    preds[inst.target] = preds.get(inst.target, 0) + 1
                elif isinstance(inst, CondBranch):
                    preds[inst.if_true] = \
                        preds.get(inst.if_true, 0) + 1
                    preds[inst.if_false] = \
                        preds.get(inst.if_false, 0) + 1
        return preds

    def _plan_fusion(self, preds: Dict[object, int], nest: bool) -> set:
        """Pick the blocks to inline into their unique predecessor.

        A block is fusable when exactly one edge reaches it (so the
        block emitting that edge can own its body), it is not the
        entry (dispatch must be able to start there), and it is not
        its own predecessor.  Loop headers always keep a dispatch
        index -- the back edge is a second predecessor -- so every
        loop still turns around through the ``while`` dispatch.
        With ``nest`` a diamond inlines both arms (the taken arm
        indented under the guard); without it only the flat
        continuation arm fuses, bounding emitted indentation.
        """
        entry = self.fn.entry_block
        inlined: set = set()

        def fusable(target, source) -> bool:
            return (preds.get(target, 0) == 1 and target is not entry
                    and target is not source)

        for block in self.fn.blocks:
            instructions = block.instructions
            term = instructions[-1] if instructions else None
            if isinstance(term, Branch):
                if fusable(term.target, block):
                    inlined.add(term.target)
            elif isinstance(term, CondBranch):
                true_b, false_b = term.if_true, term.if_false
                true_ok = true_b is not false_b \
                    and fusable(true_b, block)
                false_ok = false_b is not true_b \
                    and fusable(false_b, block)
                if false_ok:
                    inlined.add(false_b)
                    if nest and true_ok:
                        inlined.add(true_b)
                elif true_ok:
                    inlined.add(true_b)
        return inlined

    def _max_nesting(self, inlined: set) -> int:
        """Worst-case indent growth of the planned inline chains.

        Reachable inline chains are acyclic: re-entering a chain
        block would give it a second incoming edge, which disqualifies
        fusion.  Only a diamond with both arms inlined indents."""
        best = 0

        def walk(block, depth: int) -> None:
            nonlocal best
            if depth > best:
                best = depth
            instructions = block.instructions
            term = instructions[-1] if instructions else None
            if isinstance(term, Branch):
                if term.target in inlined:
                    walk(term.target, depth)
            elif isinstance(term, CondBranch):
                true_b, false_b = term.if_true, term.if_false
                true_in = true_b in inlined and true_b is not false_b
                false_in = false_b in inlined
                if true_in:
                    walk(true_b, depth + 1 if false_in else depth)
                if false_in:
                    walk(false_b, depth)

        for block in self.fn.blocks:
            if block not in inlined:
                walk(block, 0)
        return best

    def _dispatch_order(self) -> List:
        """Blocks ordered innermost-loop-first for the elif chain."""
        blocks = list(self.fn.blocks)
        depth = {block: 0 for block in blocks}
        try:
            for loop in find_loops(self.fn):
                for block in loop.blocks:
                    if block in depth:
                        depth[block] = max(depth[block], loop.depth)
        except Exception:
            pass  # dispatch order is a heuristic, never a correctness issue
        position = {block: i for i, block in enumerate(blocks)}
        return sorted(blocks, key=lambda b: (-depth[b], position[b]))

    def compile(self):
        fn = self.fn
        check_definitions(fn)
        for i, arg in enumerate(fn.args):
            self.names[arg] = f"a{i}"
        serial = 0
        for inst in fn.instructions():
            if inst.produces_value:
                self.names[inst] = f"r{serial}"
                serial += 1
        preds = self._edge_counts()
        self._inlined = self._plan_fusion(preds, nest=True)
        if self._max_nesting(self._inlined) > 40:
            # Degenerate conditional ladders would nest past the
            # parser's indentation comfort zone; fall back to flat
            # fusion only (continuation arms, no indent growth).
            self._inlined = self._plan_fusion(preds, nest=False)
        dispatch = [block for block in self._dispatch_order()
                    if block not in self._inlined]
        index = {block: i for i, block in enumerate(dispatch)}
        if len(dispatch) == 1 and not preds.get(fn.entry_block, 0):
            # Every successor chain fused into the entry and nothing
            # jumps back to it: the function is straight-line (plus
            # structured conditionals) -- no dispatch loop at all.
            self._emit_block_body(fn.entry_block, index)
        else:
            self._emit(f"_b = {index[fn.entry_block]}")
            self._emit("while True:")
            self.indent += 1
            for i, block in enumerate(dispatch):
                self._emit(("if" if i == 0 else "elif") + f" _b == {i}:")
                self.indent += 1
                self._emit_block_body(block, index)
                self.indent -= 1
            self.indent -= 1
        body = self.lines
        prologue: List[str] = []
        if len(fn.args) == 1:
            prologue.append("    a0, = args")
        elif fn.args:
            prologue.append("    " + ", ".join(
                self.names[a] for a in fn.args) + " = args")
        if self._sites:
            sites = len(self._sites)
            # Fresh per machine: holds that machine's segment objects.
            self.builders["_cc"] = \
                lambda m, mem, n=sites: [mem.segments[0]] * n
            unpack = ", ".join(self._sites)
            if len(self._sites) == 1:
                unpack += ","
            prologue.append(f"    {unpack} = _cc")
        params = ", ".join(f"{name}={name}" for name in self.builders)
        header = f"def __srcgen(args, *, {params}):"
        source = "\n".join([header] + prologue + body) + "\n"
        tag = f"<srcgen @{fn.name}:{self.mode}" \
            + (":hooked" if self.hooked else "") \
            + (":guarded>" if self.guarded else ">")
        code_obj = compile(source, tag, "exec")
        return source, code_obj, self.builders


def _instantiate(machine, fn: Function, key: tuple, entry) -> "object":
    source, code_obj, builders = entry
    mode, hooked, guarded = key
    memory = machine.device.memory if mode == "gpu" \
        else machine.cpu_memory
    namespace = {name: build(machine, memory)
                 for name, build in builders.items()}
    exec(code_obj, namespace)  # noqa: S102
    code = namespace["__srcgen"]
    code.__name__ = code.__qualname__ = f"srcgen_{fn.name}_{mode}"
    code.source = source
    code.function = fn
    code.mode = mode
    code.hooked = hooked
    code.guarded = guarded
    return code


def compile_function_source(machine, fn: Function, mode: str,
                            hooked: bool, guarded: bool = False):
    """Translate ``fn`` into compiled Python source for one machine
    and mode; the returned callable is invoked as ``code(args)``.
    ``guarded`` code checks ``machine.writeback_guard`` before every
    load/store.

    Emission and ``compile()`` happen once per (function, mode,
    hooked, guarded) process-wide; each machine only re-instantiates
    the baked namespace from the cached builder recipe.
    """
    if fn.is_declaration:
        raise InterpError(f"cannot compile declaration @{fn.name}")
    if mode not in ("cpu", "gpu"):
        raise InterpError(f"cannot compile for mode {mode!r}")
    per_fn = _CODE_CACHE.setdefault(fn, {})
    key = (mode, hooked, guarded)
    entry = per_fn.get(key)
    if entry is None:
        entry = _SourceCompiler(machine, fn, mode, hooked,
                                guarded).compile()
        per_fn[key] = entry
    return _instantiate(machine, fn, key, entry)
