"""Closure-compiled execution engine ("threaded code").

The tree-walking interpreter in :mod:`repro.interp.machine` pays, for
*every dynamic instruction*, an isinstance dispatch chain, per-operand
``eval`` dispatch, and ``Dict[Value]`` register traffic.  This module
translates each IR function **once** into flat per-block lists of
zero-argument Python closures -- the scripting-language run-time code
generation play of PyCUDA/PyOpenCL, applied to our own interpreter:

* **Register slot allocation.**  Every value a function touches --
  formal arguments, instruction results, constants, global addresses,
  undef -- is assigned an index into one flat register list ``R``.
  Constants and global addresses are *baked* into an initialization
  template at compile time, so operand access inside a closure is a
  single ``R[i]`` list index: no isinstance chain, no dict hashing,
  no per-use global address resolution.

* **Basic-block-fused cost charging.**  The static ``_OP_COSTS`` of a
  straight-line run of instructions are summed at compile time and
  charged by one closure per run instead of one ``charge_ops`` call
  per instruction.  Runs are split at ``call``/``launch`` boundaries:
  those are the only instructions that can flush pending CPU ops into
  the :class:`~repro.gpu.timing.SimClock` (or advance other lanes), so
  the integer op totals visible at every clock advance -- and hence
  every simulated timestamp -- are *bit-identical* to the
  tree-walker's.  Dynamic costs (`div`/`rem` extra ops) stay inside
  their own closures.

* **Mode variants.**  A function is compiled per (address space,
  hooks-armed, guarded) triple: globals resolve to host or device
  addresses, stores compile in the kernel pointer-store restriction
  only for GPU code, and armed ``mem_hooks`` select hook-calling
  load/store closures so the communication sanitizer observes the
  same stream of events as under the tree-walker.  Guarded (host code
  under a streams write-back guard) also takes the hook-calling
  closures, which consult the guard first.

* **Compile-time undefined-register detection.**  The structural
  verifier only checks that every operand is defined *somewhere*; the
  compiler additionally requires every (reachable) use to be dominated
  by its definition, turning a would-be silent garbage read into an
  :class:`InterpError` at compile time.  (The tree-walker raises the
  equivalent error at run time, on first use.)

Compiled code is cached on the machine (``Machine.compiled_for``) and
selected with ``Machine(engine="compiled")``; the tree-walker remains
the reference semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.cfg import reverse_postorder
from ..analysis.dominators import DominatorTree
from ..errors import CgcmUnsupportedError, InterpError, MemoryFault
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Instruction,
                               LaunchKernel, Load, Return, Select, Store,
                               Unreachable)
from ..ir.types import ArrayType, FloatType, IntType, PointerType, StructType
from ..ir.values import Constant, GlobalVariable, UndefValue, Value
from ..memory.flatmem import round_f32, scalar_struct
from .machine import (_DIV_EXTRA, _OP_COSTS, _trunc_div_float,
                      _trunc_div_int)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INF = float("inf")
_NINF = float("-inf")
_NAN = float("nan")

#: Shared return cell for ``ret void`` (avoids a tuple per call).
_VOID_RETURN = (None,)


def _ret_void():
    return _VOID_RETURN


class CompiledFunction:
    """One function translated to threaded code for one mode.

    The register file ``R`` is a single list owned by this object and
    reused across calls; every closure captured it (and its slot
    indices) at compile time, which is what makes the closures
    zero-argument.  Re-entrant calls (recursion, or a kernel calling
    back into an already-active helper) save and restore ``R`` around
    the inner activation.
    """

    __slots__ = ("function", "mode", "hooked", "_regs", "_template",
                 "_nargs", "_blocks", "_active")

    def __init__(self, function: Function, mode: str, hooked: bool,
                 template: List, nargs: int,
                 blocks: List[Tuple[tuple, Callable]]):
        self.function = function
        self.mode = mode
        self.hooked = hooked
        self._template = template
        self._regs = list(template)
        self._nargs = nargs
        self._blocks = blocks
        self._active = False

    @property
    def n_slots(self) -> int:
        return len(self._template)

    def __call__(self, args: List):
        R = self._regs
        if self._active:
            saved = R[:]
        else:
            saved = None
            self._active = True
        try:
            R[:] = self._template
            R[:self._nargs] = args
            blocks = self._blocks
            body, terminator = blocks[0]
            while True:
                for op in body:
                    op()
                tag = terminator()
                if tag.__class__ is int:
                    body, terminator = blocks[tag]
                else:
                    return tag[0]
        finally:
            if saved is None:
                self._active = False
            else:
                R[:] = saved

    def __repr__(self) -> str:
        return (f"<CompiledFunction @{self.function.name} mode={self.mode} "
                f"hooked={self.hooked} slots={self.n_slots}>")


# -- closure factories -------------------------------------------------------
#
# Each factory bakes its operands into default-free closure cells; the
# closures themselves take no arguments and communicate only through
# the shared register list R and the machine's counters.

def _make_charge_cpu(machine, ops: int, insts: int):
    def op():
        machine._pending_cpu_ops += ops
        machine.executed_instructions += insts
    return op


def _make_charge_gpu(machine, ops: int, insts: int):
    def op():
        machine._gpu_ops += ops
        machine.executed_instructions += insts
    return op


# Loads and stores bake the struct codec, access size, and target
# address space at compile time; the segment one-entry cache and
# bounds checks are inlined so the fast path is straight-line Python
# with no isinstance dispatch and no intermediate bytes objects.

def _make_load(R, d, p, memory, codec, i1):
    size = codec.size
    unpack_from = codec.unpack_from
    if i1:
        def op():
            address = R[p]
            segment = memory._cached_segment
            if not (segment.base <= address < segment.limit):
                segment = memory.segment_for(address)
            offset = address - segment.base
            end = offset + size
            if end > segment.capacity:
                raise MemoryFault(
                    f"{memory.name}: access of {size} bytes at "
                    f"{address:#x} overruns segment {segment.name}",
                    address)
            if end > len(segment.data):
                segment.grow_to(end)
            R[d] = unpack_from(segment.data, offset)[0] & 1
    else:
        def op():
            address = R[p]
            segment = memory._cached_segment
            if not (segment.base <= address < segment.limit):
                segment = memory.segment_for(address)
            offset = address - segment.base
            end = offset + size
            if end > segment.capacity:
                raise MemoryFault(
                    f"{memory.name}: access of {size} bytes at "
                    f"{address:#x} overruns segment {segment.name}",
                    address)
            if end > len(segment.data):
                segment.grow_to(end)
            R[d] = unpack_from(segment.data, offset)[0]
    return op


def _make_load_hooked(R, d, p, load_scalar, type_, machine, size,
                      pending, guard):
    def op():
        address = R[p]
        if pending:
            guard(machine, "load", address, size)
        for hook in machine.mem_hooks:
            hook(machine, "load", address, size)
        R[d] = load_scalar(address, type_)
    return op


def _make_store_int(R, v, p, memory, codec, mask, hi, span):
    size = codec.size
    pack_into = codec.pack_into

    def op():
        address = R[p]
        value = R[v] & mask
        if value > hi:
            value -= span
        segment = memory._cached_segment
        if not (segment.base <= address < segment.limit):
            segment = memory.segment_for(address)
        offset = address - segment.base
        end = offset + size
        if end > segment.capacity:
            raise MemoryFault(
                f"{memory.name}: access of {size} bytes at {address:#x} "
                f"overruns segment {segment.name}", address)
        if end > len(segment.data):
            segment.grow_to(end)
        pack_into(segment.data, offset, value)
    return op


def _make_store_float(R, v, p, memory, codec):
    size = codec.size
    pack_into = codec.pack_into
    f32 = size == 4

    def op():
        address = R[p]
        segment = memory._cached_segment
        if not (segment.base <= address < segment.limit):
            segment = memory.segment_for(address)
        offset = address - segment.base
        end = offset + size
        if end > segment.capacity:
            raise MemoryFault(
                f"{memory.name}: access of {size} bytes at {address:#x} "
                f"overruns segment {segment.name}", address)
        if end > len(segment.data):
            segment.grow_to(end)
        pack_into(segment.data, offset,
                  round_f32(R[v]) if f32 else R[v])
    return op


def _make_store_ptr(R, v, p, memory, codec, on_device_stack, fname):
    size = codec.size
    pack_into = codec.pack_into

    def op():
        address = R[p]
        if on_device_stack is not None and not on_device_stack(address):
            raise CgcmUnsupportedError(
                f"kernel @{fname} stores a pointer into memory "
                "(CGCM restriction)")
        segment = memory._cached_segment
        if not (segment.base <= address < segment.limit):
            segment = memory.segment_for(address)
        offset = address - segment.base
        end = offset + size
        if end > segment.capacity:
            raise MemoryFault(
                f"{memory.name}: access of {size} bytes at {address:#x} "
                f"overruns segment {segment.name}", address)
        if end > len(segment.data):
            segment.grow_to(end)
        pack_into(segment.data, offset, R[v] & _MASK64)
    return op


def _make_store_hooked(R, v, p, store_scalar, type_, machine, size,
                       on_device_stack, fname, pending, guard):
    def op():
        address = R[p]
        if pending:
            guard(machine, "store", address, size)
        for hook in machine.mem_hooks:
            hook(machine, "store", address, size)
        if on_device_stack is not None and not on_device_stack(address):
            raise CgcmUnsupportedError(
                f"kernel @{fname} stores a pointer into memory "
                "(CGCM restriction)")
        store_scalar(address, type_, R[v])
    return op


# Integer results are wrapped into the type's signed range inline:
# v = raw & mask; v - span if v > hi else v.  Pointer results reuse the
# same shape with hi = mask and span = 0, i.e. plain unsigned masking.

def _int_params(type_) -> Tuple[int, int, int]:
    if isinstance(type_, PointerType):
        return _MASK64, _MASK64, 0
    if type_.bits == 1:
        return 1, 1, 0
    mask = (1 << type_.bits) - 1
    return mask, type_.max_value, 1 << type_.bits


def check_definitions(fn: Function) -> None:
    """Reject (reachable) uses not dominated by their definition.

    The tree-walker discovers such reads at run time and raises
    :class:`InterpError`; both ahead-of-time engines (closure and
    source) call this up front so a malformed function can never
    start executing half-compiled.
    """
    reachable = set(reverse_postorder(fn))
    dom = DominatorTree(fn)
    positions: Dict[Instruction, Tuple[object, int]] = {}
    for block in fn.blocks:
        for index, inst in enumerate(block.instructions):
            positions[inst] = (block, index)
    for block in fn.blocks:
        if block not in reachable:
            continue
        for index, inst in enumerate(block.instructions):
            for operand in inst.operands:
                if not isinstance(operand, Instruction):
                    continue
                defined = positions.get(operand)
                if defined is None:
                    raise InterpError(
                        f"@{fn.name}/{block.name}: read of undefined "
                        f"register {operand.ref} (defined in another "
                        "function)")
                def_block, def_index = defined
                if def_block is block:
                    ok = def_index < index
                else:
                    ok = dom.dominates(def_block, block)
                if not ok:
                    raise InterpError(
                        f"@{fn.name}/{block.name}: read of register "
                        f"{operand.ref} whose definition does not "
                        "dominate the use (undefined on some path)")


def _make_int_add(R, d, a, b, mask, hi, span):
    def op():
        v = (R[a] + R[b]) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_sub(R, d, a, b, mask, hi, span):
    def op():
        v = (R[a] - R[b]) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_mul(R, d, a, b, mask, hi, span):
    def op():
        v = (R[a] * R[b]) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_div(R, d, a, b, mask, hi, span, charge_div):
    def op():
        charge_div()
        v = _trunc_div_int(R[a], R[b]) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_rem(R, d, a, b, mask, hi, span, charge_div):
    def op():
        charge_div()
        lhs, rhs = R[a], R[b]
        v = (lhs - rhs * _trunc_div_int(lhs, rhs)) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_bitwise(opname, R, d, a, b, mask, hi, span):
    if opname == "and":
        def raw(x, y):
            return x & y
    elif opname == "or":
        def raw(x, y):
            return x | y
    else:
        def raw(x, y):
            return x ^ y

    def op():
        v = raw(R[a], R[b]) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_shl(R, d, a, b, mask, hi, span):
    def op():
        v = (R[a] << (R[b] & 63)) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_int_shr(R, d, a, b, mask, hi, span):
    def op():
        v = (R[a] >> (R[b] & 63)) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_float_add(R, d, a, b):
    def op():
        R[d] = R[a] + R[b]
    return op


def _make_float_sub(R, d, a, b):
    def op():
        R[d] = R[a] - R[b]
    return op


def _make_float_mul(R, d, a, b):
    def op():
        R[d] = R[a] * R[b]
    return op


def _make_float_div(R, d, a, b, charge_div):
    def op():
        charge_div()
        rhs = R[b]
        if rhs == 0.0:
            lhs = R[a]
            R[d] = _INF if lhs > 0 else (_NINF if lhs < 0 else _NAN)
        else:
            R[d] = R[a] / rhs
    return op


def _make_float_rem(R, d, a, b, charge_div):
    def op():
        charge_div()
        rhs = R[b]
        if rhs == 0.0:
            R[d] = _NAN
        else:
            lhs = R[a]
            R[d] = float(lhs - rhs * _trunc_div_float(lhs, rhs))
    return op


def _make_compare(pred, R, d, a, b):
    # Unary plus narrows the bool to a plain int, matching the
    # tree-walker's int(...) result even under str()-based printing.
    if pred == "eq":
        def op():
            R[d] = +(R[a] == R[b])
    elif pred == "ne":
        def op():
            R[d] = +(R[a] != R[b])
    elif pred == "lt":
        def op():
            R[d] = +(R[a] < R[b])
    elif pred == "le":
        def op():
            R[d] = +(R[a] <= R[b])
    elif pred == "gt":
        def op():
            R[d] = +(R[a] > R[b])
    else:
        def op():
            R[d] = +(R[a] >= R[b])
    return op


def _make_copy(R, d, s):
    def op():
        R[d] = R[s]
    return op


def _make_mask64(R, d, s):
    def op():
        R[d] = R[s] & _MASK64
    return op


def _make_int_wrap(R, d, s, mask, hi, span):
    def op():
        v = R[s] & mask
        R[d] = v - span if v > hi else v
    return op


def _make_zext(R, d, s, src_mask, mask, hi, span):
    def op():
        v = (R[s] & src_mask) & mask
        R[d] = v - span if v > hi else v
    return op


def _make_round_f32(R, d, s):
    def op():
        R[d] = round_f32(R[s])
    return op


def _make_sitofp(R, d, s):
    def op():
        R[d] = float(R[s])
    return op


def _make_fptosi(R, d, s, mask, hi, span):
    def op():
        f = R[s]
        if f != f or f == _INF or f == _NINF:
            R[d] = 0
        else:
            v = int(f) & mask
            R[d] = v - span if v > hi else v
    return op


def _make_gep0(R, d, p, off):
    def op():
        R[d] = R[p] + off
    return op


def _make_gep1(R, d, p, off, i0, s0):
    def op():
        R[d] = R[p] + off + R[i0] * s0
    return op


def _make_gep2(R, d, p, off, i0, s0, i1, s1):
    def op():
        R[d] = R[p] + off + R[i0] * s0 + R[i1] * s1
    return op


def _make_gepn(R, d, p, off, pairs):
    def op():
        address = R[p] + off
        for i, scale in pairs:
            address += R[i] * scale
        R[d] = address
    return op


def _make_select(R, d, c, t, f):
    def op():
        R[d] = R[t] if R[c] else R[f]
    return op


def _make_alloca_cpu(R, d, c, elem_size, align, machine, fill):
    def op():
        count = R[c]
        if count < 0:
            raise InterpError("alloca with negative count")
        size = elem_size * count
        address = (machine._cpu_sp + align - 1) // align * align
        machine._cpu_sp = address + size
        if size:
            fill(address, size, 0)
        R[d] = address
    return op


def _make_alloca_gpu(R, d, c, elem_size, align, machine, fill):
    def op():
        count = R[c]
        if count < 0:
            raise InterpError("alloca with negative count")
        size = elem_size * count
        address = (machine._gpu_sp + align - 1) // align * align
        machine._gpu_sp = address + size
        if size:
            fill(address, size, 0)
        R[d] = address
    return op


def _make_call(R, d, call, callee, arg_slots):
    if d is None:
        def op():
            call(callee, [R[i] for i in arg_slots])
    else:
        def op():
            R[d] = call(callee, [R[i] for i in arg_slots])
    return op


def _make_launch(R, launch, kernel, g, arg_slots):
    def op():
        launch(kernel, int(R[g]), [R[i] for i in arg_slots])
    return op


def _make_branch(target_index):
    def op():
        return target_index
    return op


def _make_cond_branch(R, c, true_index, false_index):
    def op():
        return true_index if R[c] else false_index
    return op


def _make_return(R, s):
    def op():
        return (R[s],)
    return op


def _make_unreachable(fname):
    def op():
        raise InterpError(f"reached unreachable in @{fname}")
    return op


# -- the compiler ------------------------------------------------------------

class _Compiler:
    """Translates one function for one (mode, hooked, guarded) triple."""

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
        #: Guarded code runs every access through the hooked ops,
        #: which call the write-back guard first.
        self.pending, self.guard = machine.writeback_guard if guarded \
            else (None, None)
        self.memory = machine.device.memory if mode == "gpu" \
            else machine.cpu_memory
        self.slots: Dict[Value, int] = {}
        self.template: List = []
        if mode == "gpu":
            def charge_div():
                machine._gpu_ops += _DIV_EXTRA
        else:
            def charge_div():
                machine._pending_cpu_ops += _DIV_EXTRA
        self.charge_div = charge_div

    # -- slot allocation ---------------------------------------------------

    def _new_slot(self, initial) -> int:
        self.template.append(initial)
        return len(self.template) - 1

    def _allocate_slots(self) -> None:
        machine, fn, mode = self.machine, self.fn, self.mode
        for arg in fn.args:
            self.slots[arg] = self._new_slot(None)
        for inst in fn.instructions():
            if inst.produces_value:
                self.slots[inst] = self._new_slot(None)
        # Second pass: literal-like operands get baked template slots.
        # Constants hash by (type, value), so each distinct literal
        # occupies exactly one slot no matter how often it is used.
        for inst in fn.instructions():
            for operand in inst.operands:
                if operand is None or operand in self.slots:
                    continue
                if isinstance(operand, Constant):
                    self.slots[operand] = self._new_slot(operand.value)
                elif isinstance(operand, GlobalVariable):
                    if mode == "gpu":
                        address = machine.device.module_get_global(
                            operand.name)
                    else:
                        address = machine.layout.address_of(operand.name)
                    self.slots[operand] = self._new_slot(address)
                elif isinstance(operand, UndefValue):
                    self.slots[operand] = self._new_slot(0)
                else:
                    raise InterpError(
                        f"@{fn.name}: operand {operand!r} is not a "
                        "constant, global, or local definition")

    def _check_definitions(self) -> None:
        check_definitions(self.fn)

    # -- per-instruction translation ---------------------------------------

    def _slot(self, value: Value) -> int:
        return self.slots[value]

    def _compile_inst(self, inst: Instruction, R) -> Callable:
        machine, mode = self.machine, self.mode
        memory = self.memory
        slow = self.hooked or self.guard is not None
        if isinstance(inst, Load):
            d, p = self._slot(inst), self._slot(inst.pointer)
            if slow:
                return _make_load_hooked(R, d, p, memory.load_scalar,
                                         inst.type, machine,
                                         inst.type.size, self.pending,
                                         self.guard)
            i1 = isinstance(inst.type, IntType) and inst.type.bits == 1
            return _make_load(R, d, p, memory, scalar_struct(inst.type),
                              i1)
        if isinstance(inst, Store):
            v, p = self._slot(inst.value), self._slot(inst.pointer)
            stored = inst.value.type
            on_stack = None
            if mode == "gpu" and stored.is_pointer:
                on_stack = machine.device.memory.segment(
                    "device-stack").contains
            if slow:
                return _make_store_hooked(
                    R, v, p, memory.store_scalar, stored,
                    machine, stored.size, on_stack, self.fn.name,
                    self.pending, self.guard)
            codec = scalar_struct(stored)
            if isinstance(stored, IntType):
                return _make_store_int(R, v, p, memory, codec,
                                       *_int_params(stored))
            if isinstance(stored, PointerType):
                return _make_store_ptr(R, v, p, memory, codec, on_stack,
                                       self.fn.name)
            return _make_store_float(R, v, p, memory, codec)
        if isinstance(inst, GetElementPtr):
            return self._compile_gep(inst, R)
        if isinstance(inst, BinaryOp):
            return self._compile_binop(inst, R)
        if isinstance(inst, Compare):
            return _make_compare(inst.pred, R, self._slot(inst),
                                 self._slot(inst.lhs),
                                 self._slot(inst.rhs))
        if isinstance(inst, Cast):
            return self._compile_cast(inst, R)
        if isinstance(inst, Select):
            return _make_select(R, self._slot(inst),
                                self._slot(inst.condition),
                                self._slot(inst.if_true),
                                self._slot(inst.if_false))
        if isinstance(inst, Alloca):
            factory = _make_alloca_gpu if mode == "gpu" else _make_alloca_cpu
            return factory(R, self._slot(inst), self._slot(inst.count),
                           inst.allocated_type.size,
                           max(inst.allocated_type.align, 8),
                           machine, memory.fill)
        if isinstance(inst, Call):
            d = self._slot(inst) if inst.produces_value else None
            arg_slots = tuple(self._slot(a) for a in inst.args)
            return _make_call(R, d, machine.call, inst.callee, arg_slots)
        if isinstance(inst, LaunchKernel):
            arg_slots = tuple(self._slot(a) for a in inst.args)
            return _make_launch(R, machine.launch_evaluated, inst.kernel,
                                self._slot(inst.grid), arg_slots)
        raise InterpError(f"cannot compile {inst.opcode}")

    def _compile_gep(self, inst: GetElementPtr, R) -> Callable:
        d, p = self._slot(inst), self._slot(inst.pointer)
        pointee = inst.pointer.type.pointee
        indices = inst.indices
        offset = 0
        pairs: List[Tuple[int, int]] = []

        def accumulate(index: Value, scale: int) -> None:
            nonlocal offset
            if isinstance(index, Constant):
                offset += int(index.value) * scale
            else:
                pairs.append((self._slot(index), scale))

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
        if not pairs:
            return _make_gep0(R, d, p, offset)
        if len(pairs) == 1:
            return _make_gep1(R, d, p, offset, *pairs[0])
        if len(pairs) == 2:
            return _make_gep2(R, d, p, offset, *pairs[0], *pairs[1])
        return _make_gepn(R, d, p, offset, tuple(pairs))

    def _compile_binop(self, inst: BinaryOp, R) -> Callable:
        d = self._slot(inst)
        a, b = self._slot(inst.lhs), self._slot(inst.rhs)
        op = inst.op
        if isinstance(inst.type, FloatType):
            if op == "add":
                return _make_float_add(R, d, a, b)
            if op == "sub":
                return _make_float_sub(R, d, a, b)
            if op == "mul":
                return _make_float_mul(R, d, a, b)
            if op == "div":
                return _make_float_div(R, d, a, b, self.charge_div)
            if op == "rem":
                return _make_float_rem(R, d, a, b, self.charge_div)
            raise InterpError(f"float binop {op}")
        mask, hi, span = _int_params(inst.type)
        if op == "add":
            return _make_int_add(R, d, a, b, mask, hi, span)
        if op == "sub":
            return _make_int_sub(R, d, a, b, mask, hi, span)
        if op == "mul":
            return _make_int_mul(R, d, a, b, mask, hi, span)
        if op == "div":
            return _make_int_div(R, d, a, b, mask, hi, span,
                                 self.charge_div)
        if op == "rem":
            return _make_int_rem(R, d, a, b, mask, hi, span,
                                 self.charge_div)
        if op in ("and", "or", "xor"):
            return _make_int_bitwise(op, R, d, a, b, mask, hi, span)
        if op == "shl":
            return _make_int_shl(R, d, a, b, mask, hi, span)
        if op == "shr":
            return _make_int_shr(R, d, a, b, mask, hi, span)
        raise InterpError(f"int binop {op}")

    def _compile_cast(self, inst: Cast, R) -> Callable:
        d, s = self._slot(inst), self._slot(inst.value)
        kind = inst.kind
        to_type = inst.type
        if kind in ("bitcast", "inttoptr"):
            if to_type.is_pointer:
                return _make_mask64(R, d, s)
            return _make_copy(R, d, s)
        if kind == "ptrtoint":
            return _make_int_wrap(R, d, s, *_int_params(to_type))
        if kind in ("trunc", "sext"):
            return _make_int_wrap(R, d, s, *_int_params(to_type))
        if kind == "zext":
            src = inst.value.type
            assert isinstance(src, IntType)
            src_mask = (1 << src.bits) - 1
            return _make_zext(R, d, s, src_mask, *_int_params(to_type))
        if kind in ("fptrunc", "fpext"):
            if to_type == FloatType(32):
                return _make_round_f32(R, d, s)
            return _make_sitofp(R, d, s)  # float(value), same as tree
        if kind == "sitofp":
            return _make_sitofp(R, d, s)
        if kind == "fptosi":
            return _make_fptosi(R, d, s, *_int_params(inst.type))
        raise InterpError(f"cast kind {kind}")

    def _compile_terminator(self, inst: Instruction, R,
                            block_index: Dict) -> Callable:
        if isinstance(inst, Branch):
            return _make_branch(block_index[inst.target])
        if isinstance(inst, CondBranch):
            return _make_cond_branch(R, self._slot(inst.condition),
                                     block_index[inst.if_true],
                                     block_index[inst.if_false])
        if isinstance(inst, Return):
            if inst.value is None:
                return _ret_void
            if isinstance(inst.value, Constant):
                baked = (inst.value.value,)

                def op():
                    return baked
                return op
            return _make_return(R, self._slot(inst.value))
        if isinstance(inst, Unreachable):
            return _make_unreachable(self.fn.name)
        raise InterpError(f"cannot compile terminator {inst.opcode}")

    # -- block assembly ----------------------------------------------------

    def compile(self) -> CompiledFunction:
        fn = self.fn
        self._check_definitions()
        self._allocate_slots()
        R: List = [None] * len(self.template)
        make_charge = _make_charge_gpu if self.mode == "gpu" \
            else _make_charge_cpu
        block_index = {block: i for i, block in enumerate(fn.blocks)}
        blocks: List[Tuple[tuple, Callable]] = []
        for block in fn.blocks:
            ops: List[Callable] = []
            pending_cost = 0
            pending_insts = 0
            pending_ops: List[Callable] = []
            for inst in block.instructions:
                pending_cost += _OP_COSTS.get(inst.opcode, 1)
                pending_insts += 1
                if inst.is_terminator:
                    pending_ops.append(
                        self._compile_terminator(inst, R, block_index))
                else:
                    pending_ops.append(self._compile_inst(inst, R))
                # Calls and launches are the only instructions that can
                # move pending op counts onto the clock; close the
                # fused-charge segment at each one so the integers
                # visible at every flush match the tree-walker exactly.
                if isinstance(inst, (Call, LaunchKernel)):
                    ops.append(make_charge(self.machine, pending_cost,
                                           pending_insts))
                    ops.extend(pending_ops)
                    pending_cost = pending_insts = 0
                    pending_ops = []
            if pending_insts:
                ops.append(make_charge(self.machine, pending_cost,
                                       pending_insts))
                ops.extend(pending_ops)
            if not block.is_terminated:
                ops.append(_make_unterminated(fn.name, block.name))
            # The dispatch loop runs the body for effect and asks only
            # the terminator for a (block index | return) tag.
            blocks.append((tuple(ops[:-1]), ops[-1]))
        regs = R
        compiled = CompiledFunction(fn, self.mode, self.hooked,
                                    self.template, len(fn.args), blocks)
        # The closures captured the pre-sized scratch list ``R``; hand
        # that exact object to the CompiledFunction as its register
        # file so they stay one and the same.
        compiled._regs = regs
        return compiled


def _make_unterminated(fname: str, bname: str):
    def op():
        raise InterpError(f"block {bname} in @{fname} fell through "
                          "without a terminator")
    return op


def compile_function(machine, fn: Function, mode: str, hooked: bool,
                     guarded: bool = False) -> CompiledFunction:
    """Translate ``fn`` into threaded code for one machine and mode;
    ``guarded`` code checks ``machine.writeback_guard`` before every
    load/store."""
    return _Compiler(machine, fn, mode, hooked, guarded).compile()
