"""Register liveness: classic backward dataflow over virtual registers.

Used by the communication-management pass to find the live-in values of
outlined kernels, and by the DOALL outliner to decide which registers
must become kernel parameters.
"""

from __future__ import annotations

from typing import Dict, Set

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.values import Argument, Value
from .cfg import predecessor_map


def _is_register(value: Value) -> bool:
    """Registers are instruction results and arguments (not constants,
    globals, or undef)."""
    return isinstance(value, (Instruction, Argument))


class Liveness:
    """Per-block live-in/live-out register sets for one function."""

    def __init__(self, fn: Function):
        self.function = fn
        self.use: Dict[BasicBlock, Set[Value]] = {}
        self.defs: Dict[BasicBlock, Set[Value]] = {}
        self.live_in: Dict[BasicBlock, Set[Value]] = {}
        self.live_out: Dict[BasicBlock, Set[Value]] = {}
        self._compute()

    def _compute(self) -> None:
        fn = self.function
        for block in fn.blocks:
            upward: Set[Value] = set()
            defined: Set[Value] = set()
            for inst in block.instructions:
                for operand in inst.operands:
                    if _is_register(operand) and operand not in defined:
                        upward.add(operand)
                if inst.produces_value:
                    defined.add(inst)
            self.use[block] = upward
            self.defs[block] = defined
            self.live_in[block] = set()
            self.live_out[block] = set()

        preds = predecessor_map(fn)
        changed = True
        while changed:
            changed = False
            for block in reversed(fn.blocks):
                out: Set[Value] = set()
                for succ in block.successors:
                    out |= self.live_in[succ]
                inn = self.use[block] | (out - self.defs[block])
                if out != self.live_out[block] or inn != self.live_in[block]:
                    self.live_out[block] = out
                    self.live_in[block] = inn
                    changed = True
        self._preds = preds

    def live_into_blocks(self, blocks: Set[BasicBlock]) -> Set[Value]:
        """Registers defined outside ``blocks`` but used inside them."""
        inside_defs: Set[Value] = set()
        for block in blocks:
            inside_defs |= self.defs[block]
        needed: Set[Value] = set()
        for block in blocks:
            for inst in block.instructions:
                for operand in inst.operands:
                    if _is_register(operand) and operand not in inside_defs:
                        needed.add(operand)
        return needed
