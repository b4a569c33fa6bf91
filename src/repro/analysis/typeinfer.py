"""Use-based pointer type inference (paper section 4).

"The C and C++ type systems are insufficient to determine which
live-in values are pointers or to determine the indirection level of a
pointer.  The compiler ignores these types and instead infers type
based on usage within the GPU function. [...] If a value flows to the
address operand of a load or store, potentially through additions,
casts, sign extensions, or other operations, the compiler labels the
value a pointer.  Similarly, if the result of a load operation flows
to another memory operation, the compiler labels the pointer operand
of the load a double pointer."

The inference deliberately never consults IR pointer types -- the
whole point is circumventing the unreliable C type system.  It is
field-insensitive (types flow through pointer arithmetic) and
interprocedural across device functions called from the kernel.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..errors import CgcmUnsupportedError
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Call, Cast, GetElementPtr,
                               Load, Select, Store)
from ..ir.module import Module
from ..ir.values import GlobalVariable, Value

#: CGCM supports at most double indirection (paper Table 1: "Max
#: Indirection 2").
MAX_SUPPORTED_DEPTH = 2


class PointerDepths:
    """Inferred indirection depth for every value in a kernel.

    Depth 0 = not a pointer, 1 = pointer, 2 = pointer to pointers.
    """

    def __init__(self, kernel: Function, module: Module):
        self.kernel = kernel
        self.module = module
        self.depths: Dict[Value, int] = {}
        self.functions = self._reachable_device_functions()
        self._infer()

    def _reachable_device_functions(self) -> List[Function]:
        seen: Set[Function] = set()
        order: List[Function] = []
        work = [self.kernel]
        while work:
            fn = work.pop()
            if fn in seen or fn.is_declaration:
                continue
            seen.add(fn)
            order.append(fn)
            for inst in fn.instructions():
                if isinstance(inst, Call):
                    work.append(inst.callee)
        return order

    def depth_of(self, value: Value) -> int:
        return self.depths.get(value, 0)

    def _raise_depth(self, value: Value, depth: int,
                     work: List[Value]) -> None:
        if depth > self.depths.get(value, 0):
            self.depths[value] = depth
            work.append(value)

    def _infer(self) -> None:
        # Collect flow edges: value -> values it flows *from* (so a
        # depth discovered at a use propagates back to its sources).
        sources: Dict[Value, List[Value]] = {}
        loads_by_result: Dict[Value, Value] = {}
        call_bindings: List[Tuple[Value, Value]] = []

        def add_flow(result: Value, source: Value) -> None:
            sources.setdefault(result, []).append(source)

        # Stack spill slots (clang -O0 keeps every local in an alloca):
        # a value stored to a slot flows to every load of that slot.
        slot_stores: Dict[Value, List[Value]] = {}
        for fn in self.functions:
            slots = _direct_slots(fn)
            for inst in fn.instructions():
                if isinstance(inst, Store) and inst.pointer in slots:
                    slot_stores.setdefault(inst.pointer,
                                           []).append(inst.value)

        work: List[Value] = []
        for fn in self.functions:
            slots = _direct_slots(fn)
            for inst in fn.instructions():
                if isinstance(inst, Load):
                    self._raise_depth(inst.pointer, 1, work)
                    if inst.pointer in slots:
                        for stored in slot_stores.get(inst.pointer, ()):
                            add_flow(inst, stored)
                    else:
                        loads_by_result[inst] = inst.pointer
                elif isinstance(inst, Store):
                    self._raise_depth(inst.pointer, 1, work)
                elif isinstance(inst, GetElementPtr):
                    add_flow(inst, inst.pointer)
                elif isinstance(inst, Cast):
                    add_flow(inst, inst.value)
                elif isinstance(inst, BinaryOp):
                    if inst.op in ("add", "sub"):
                        add_flow(inst, inst.lhs)
                        add_flow(inst, inst.rhs)
                elif isinstance(inst, Select):
                    add_flow(inst, inst.if_true)
                    add_flow(inst, inst.if_false)
                elif isinstance(inst, Call) and not inst.callee.is_declaration:
                    for formal, actual in zip(inst.callee.args, inst.args):
                        call_bindings.append((formal, actual))

        # Fixed point: pointer-ness flows from uses back to sources,
        # and loading from a pointer whose result is itself a pointer
        # makes the loaded-from pointer doubly indirect.
        changed = True
        while changed:
            changed = False
            before = dict(self.depths)
            for value, value_sources in sources.items():
                depth = self.depths.get(value, 0)
                if depth:
                    for source in value_sources:
                        self._raise_depth(source, depth, work)
            for result, pointer in loads_by_result.items():
                result_depth = self.depths.get(result, 0)
                if result_depth:
                    self._raise_depth(pointer, result_depth + 1, work)
            for formal, actual in call_bindings:
                formal_depth = self.depths.get(formal, 0)
                if formal_depth:
                    self._raise_depth(actual, formal_depth, work)
            changed = before != self.depths

    # -- restriction checks (paper section 2.3) ---------------------------

    def check_restrictions(self) -> List[str]:
        """Violations of CGCM's two restrictions in this kernel."""
        problems: List[str] = []
        for value, depth in self.depths.items():
            if isinstance(value, Alloca):
                continue  # spill slots carry their content's depth + 1
            if depth > MAX_SUPPORTED_DEPTH:
                problems.append(
                    f"@{self.kernel.name}: value {value.ref} has "
                    f"indirection depth {depth} (max "
                    f"{MAX_SUPPORTED_DEPTH})")
        for fn in self.functions:
            for inst in fn.instructions():
                if not isinstance(inst, Store) \
                        or isinstance(inst.pointer, Alloca):
                    continue  # spilling to the thread stack is fine
                if self.depth_of(inst.value) >= 1 \
                        or inst.value.type.is_pointer:
                    problems.append(
                        f"@{fn.name}: kernel stores a pointer into memory")
        return problems

    def require_supported(self) -> None:
        problems = self.check_restrictions()
        if problems:
            raise CgcmUnsupportedError("; ".join(problems))

    # -- live-in classification ---------------------------------------------

    def live_in_depths(self) -> Dict[Value, int]:
        """Depth of each kernel live-in: formal parameters (beyond the
        thread id) and globals used anywhere in the device code."""
        result: Dict[Value, int] = {}
        for arg in self.kernel.args[1:]:
            result[arg] = self.depth_of(arg)
        for fn in self.functions:
            for inst in fn.instructions():
                for operand in inst.operands:
                    if isinstance(operand, GlobalVariable):
                        depth = max(self.depth_of(operand), 1)
                        result[operand] = max(result.get(operand, 0), depth)
        return result


def _direct_slots(fn: Function) -> Set[Value]:
    """Allocas used only as direct load/store targets (spill slots)."""
    slots: Set[Value] = set()
    disqualified: Set[Value] = set()
    for inst in fn.instructions():
        if isinstance(inst, Alloca):
            slots.add(inst)
    for inst in fn.instructions():
        for operand in inst.operands:
            if operand not in slots:
                continue
            is_direct = (isinstance(inst, Load)
                         and inst.pointer is operand) or \
                (isinstance(inst, Store) and inst.pointer is operand
                 and inst.value is not operand)
            if not is_direct:
                disqualified.add(operand)
    return slots - disqualified


def infer_pointer_depths(kernel: Function, module: Module) -> PointerDepths:
    """Run use-based type inference for one kernel."""
    return PointerDepths(kernel, module)
