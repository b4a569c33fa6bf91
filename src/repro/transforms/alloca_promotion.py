"""Alloca promotion: hoist mapped stack allocations up the call graph.

Paper section 5.2: "Map promotion cannot hoist a local variable above
its parent function.  Alloca promotion hoists local allocation up the
call graph to improve map promotion's applicability.  Alloca promotion
preallocates local variables in their parents' stack frames."

Concretely we hoist ``declareAlloca`` calls (the registered, mappable
form escaping stack variables take after communication management):
the callee gains a pointer parameter, every call site allocates-and-
registers in the caller's frame and passes the address.  Like map
promotion the pass iterates to convergence; recursive functions are
ineligible (two live instances would share one slot).
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.function import Function
from ..ir.instructions import Call
from ..ir.module import Module
from ..ir.types import FunctionType, RAW_PTR
from ..ir.values import Argument, Constant
from ..analysis.callgraph import CallGraph
from .contract import PassContract

#: Alloca promotion reshapes signatures and moves ``declareAlloca``
#: registrations across frames but never touches launches or
#: observable calls; the mapping-state checker guards the moved
#: registrations.
CONTRACT = PassContract(stage="alloca-promotion")

_MAX_ITERATIONS = 10


class AllocaPromotion:
    """Hoists constant-size ``declareAlloca`` calls into callers."""

    def __init__(self, module: Module):
        self.module = module
        self.promoted = 0

    def run(self) -> None:
        for _ in range(_MAX_ITERATIONS):
            if not self._one_round():
                return

    def _one_round(self) -> bool:
        callgraph = CallGraph(self.module)
        changed = False
        for fn in callgraph.bottom_up():
            if fn.is_kernel or fn.name == "main" or fn.is_declaration:
                continue
            if callgraph.is_recursive(fn):
                continue
            call_sites = callgraph.call_sites_of(fn)
            if not call_sites:
                continue
            while True:
                declare = self._hoistable_declare(fn)
                if declare is None:
                    break
                self._hoist(fn, declare, call_sites)
                self.promoted += 1
                changed = True
        return changed

    def _hoistable_declare(self, fn: Function) -> Optional[Call]:
        """The first constant-size declareAlloca in the entry block."""
        for inst in fn.entry_block.instructions:
            if isinstance(inst, Call) \
                    and inst.callee.name == "declareAlloca" \
                    and isinstance(inst.args[0], Constant):
                return inst
        return None

    def _hoist(self, fn: Function, declare: Call,
               call_sites: List[Call]) -> None:
        size = declare.args[0]
        declare_callee = declare.callee

        # Grow the callee's signature with a pointer parameter.
        new_param = Argument(RAW_PTR, fn.unique_name("prealloc"),
                             len(fn.args), fn)
        fn.args.append(new_param)
        fn.type = FunctionType(fn.type.return_type,
                               [a.type for a in fn.args])
        for inst in fn.instructions():
            inst.replace_operand(declare, new_param)
        declare.erase()

        # Preallocate at every call site and pass the address.
        for site in call_sites:
            block = site.parent
            assert block is not None
            caller = block.parent
            assert caller is not None
            prealloc = Call(declare_callee, [size])
            prealloc.name = caller.unique_name("prealloc")
            prealloc.parent = block
            block.instructions.insert(block.index(site), prealloc)
            site.operands.append(prealloc)
