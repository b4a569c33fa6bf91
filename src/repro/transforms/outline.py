"""Region cloning: the machinery behind outlining loops and glue code.

`clone_region` copies a set of basic blocks into a target function,
remapping register operands through a value map and branch targets
through a block map.  The DOALL outliner and the glue-kernel pass both
build on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..errors import TransformError
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Branch, Call, Cast, Compare,
                               CondBranch, GetElementPtr, Instruction,
                               LaunchKernel, Load, Return, Select, Store,
                               Unreachable)
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


def remap_operand(value: Value, value_map: Dict[Value, Value]) -> Value:
    """Map a register through ``value_map``; constants/globals pass
    through untouched."""
    mapped = value_map.get(value)
    if mapped is not None:
        return mapped
    if isinstance(value, (Constant, GlobalVariable, UndefValue)):
        return value
    if isinstance(value, (Instruction, Argument)):
        raise TransformError(
            f"outlining: operand {value.ref} has no mapping (it is "
            "defined outside the cloned region but was not made a "
            "parameter)")
    return value


def clone_instruction(inst: Instruction, value_map: Dict[Value, Value],
                      block_map: Dict[BasicBlock, BasicBlock]) -> Instruction:
    """Create a copy of ``inst`` with operands and targets remapped."""
    def op(value: Value) -> Value:
        return remap_operand(value, value_map)

    if isinstance(inst, Alloca):
        clone = Alloca(inst.allocated_type, op(inst.count), inst.name)
    elif isinstance(inst, Load):
        clone = Load(op(inst.pointer), inst.name)
    elif isinstance(inst, Store):
        clone = Store(op(inst.value), op(inst.pointer))
    elif isinstance(inst, GetElementPtr):
        clone = GetElementPtr(op(inst.pointer),
                              [op(i) for i in inst.indices], inst.name)
    elif isinstance(inst, BinaryOp):
        clone = BinaryOp(inst.op, op(inst.lhs), op(inst.rhs), inst.name)
    elif isinstance(inst, Compare):
        clone = Compare(inst.pred, op(inst.lhs), op(inst.rhs), inst.name)
    elif isinstance(inst, Cast):
        clone = Cast(inst.kind, op(inst.value), inst.type, inst.name)
    elif isinstance(inst, Select):
        clone = Select(op(inst.condition), op(inst.if_true),
                       op(inst.if_false), inst.name)
    elif isinstance(inst, Call):
        clone = Call(inst.callee, [op(a) for a in inst.args], inst.name)
    elif isinstance(inst, LaunchKernel):
        clone = LaunchKernel(inst.kernel, op(inst.grid),
                             [op(a) for a in inst.args])
    elif isinstance(inst, Branch):
        clone = Branch(block_map.get(inst.target, inst.target))
    elif isinstance(inst, CondBranch):
        clone = CondBranch(op(inst.condition),
                           block_map.get(inst.if_true, inst.if_true),
                           block_map.get(inst.if_false, inst.if_false))
    elif isinstance(inst, Return):
        clone = Return(op(inst.value) if inst.value is not None else None)
    elif isinstance(inst, Unreachable):
        clone = Unreachable()
    else:
        raise TransformError(f"cannot clone {inst.opcode}")
    return clone


def clone_region(blocks: Sequence[BasicBlock], target: Function,
                 value_map: Dict[Value, Value],
                 block_map: Dict[BasicBlock, BasicBlock],
                 skip: Optional[Set[Instruction]] = None
                 ) -> List[BasicBlock]:
    """Clone ``blocks`` into ``target``.

    ``value_map`` must pre-seed every externally-defined register the
    region uses (parameters, privatized allocas); it is extended with
    the clones of region-internal instructions.  ``block_map`` must
    pre-seed targets *outside* the region (e.g. loop header -> kernel
    exit); entries for the region's own blocks are created here.
    ``skip`` instructions are omitted (e.g. the induction update).
    """
    skip = skip or set()
    new_blocks: List[BasicBlock] = []
    for block in blocks:
        new_block = target.new_block(block.name)
        block_map[block] = new_block
        new_blocks.append(new_block)
    for block, new_block in zip(blocks, new_blocks):
        for inst in block.instructions:
            if inst in skip:
                continue
            clone = clone_instruction(inst, value_map, block_map)
            if clone.produces_value:
                clone.name = target.unique_name(inst.name or "t")
                value_map[inst] = clone
            new_block.append(clone)
    return new_blocks


def erase_blocks(fn: Function, blocks: Iterable[BasicBlock]) -> None:
    """Remove blocks from a function (caller guarantees no live uses)."""
    doomed = set(blocks)
    fn.blocks = [b for b in fn.blocks if b not in doomed]
    for block in doomed:
        block.parent = None
