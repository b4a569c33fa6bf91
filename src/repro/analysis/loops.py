"""Natural loop detection and counted-loop recognition.

CGCM's optimizations work on *regions* that are either whole functions
or loop bodies (paper Algorithm 4); the DOALL parallelizer needs the
stronger :class:`CountedLoop` shape (canonical induction variable with
loop-invariant bounds) produced by :func:`recognize_counted_loop`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Compare, CondBranch,
                               Instruction, Load, Store)
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .cfg import predecessor_map, reachable_blocks
from .dominators import DominatorTree


class Loop:
    """One natural loop: header plus the body that can reach the latch."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def latches(self) -> List[BasicBlock]:
        return [b for b in self.blocks
                if self.header in b.successors and b is not self.header]

    def exit_edges(self) -> List[tuple]:
        """(from_block, to_block) pairs leaving the loop."""
        edges = []
        for block in self.blocks:
            for succ in block.successors:
                if succ not in self.blocks:
                    edges.append((block, succ))
        return edges

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


def find_loops(fn: Function,
               preds: Optional[Dict[BasicBlock, List[BasicBlock]]] = None
               ) -> List[Loop]:
    """All natural loops of ``fn``, outermost first, nesting linked.

    ``preds`` is ``fn``'s :func:`predecessor_map`, for callers that
    already hold one; it is built here otherwise.
    """
    if preds is None:
        preds = predecessor_map(fn)
    domtree = DominatorTree(fn, preds)
    reachable = reachable_blocks(fn)
    loops_by_header: Dict[BasicBlock, Loop] = {}

    for block in fn.blocks:
        if block not in reachable:
            continue
        for succ in block.successors:
            if succ in reachable and domtree.dominates(succ, block):
                header = succ
                body = _natural_loop_blocks(header, block, preds)
                loop = loops_by_header.get(header)
                if loop is None:
                    loops_by_header[header] = Loop(header, body)
                else:
                    loop.blocks |= body

    loops = list(loops_by_header.values())
    # Link nesting: the parent is the smallest strictly-containing loop.
    for loop in loops:
        best: Optional[Loop] = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.blocks and loop.blocks <= other.blocks:
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
        if best is not None:
            best.children.append(loop)
    loops.sort(key=lambda l: l.depth)
    return loops


def _natural_loop_blocks(header: BasicBlock, latch: BasicBlock,
                         preds: Dict[BasicBlock, List[BasicBlock]]
                         ) -> Set[BasicBlock]:
    blocks = {header, latch}
    work = [latch]
    while work:
        block = work.pop()
        if block is header:
            continue
        for pred in preds.get(block, []):
            if pred not in blocks:
                blocks.add(pred)
                work.append(pred)
    return blocks


def loop_preheader(loop: Loop,
                   preds: Dict[BasicBlock, List[BasicBlock]]
                   ) -> Optional[BasicBlock]:
    """The unique out-of-loop predecessor of the header, if there is one."""
    outside = [p for p in preds.get(loop.header, [])
               if p not in loop.blocks]
    if len(outside) == 1 and len(outside[0].successors) == 1:
        return outside[0]
    return None


class CountedLoop:
    """A canonicalized counted loop::

        i = start
        while (i < end):   # header: load i; cmp; cbr
            body
            i += step      # step block (the unique latch)

    ``ivar`` is the alloca holding the induction variable; ``start``,
    ``end``, and ``step`` are loop-invariant values (step a constant).
    """

    def __init__(self, loop: Loop, ivar: Alloca, start: Value, end: Value,
                 step: int, pred: str, preheader: BasicBlock,
                 exit_block: BasicBlock, latch: BasicBlock,
                 compare: Compare, end_computation: List[Instruction]):
        self.loop = loop
        self.ivar = ivar
        self.start = start
        self.end = end
        self.step = step
        self.pred = pred
        self.preheader = preheader
        self.exit_block = exit_block
        self.latch = latch
        self.compare = compare
        #: Header instructions (in order) that compute ``end`` from
        #: loop-invariant memory; cloneable above the loop.
        self.end_computation = end_computation

    @property
    def body_blocks(self) -> Set[BasicBlock]:
        """Loop blocks excluding header and latch."""
        return self.loop.blocks - {self.loop.header, self.latch}

    def __repr__(self) -> str:
        return (f"<CountedLoop {self.ivar.name} "
                f"{self.pred} step={self.step}>")


def recognize_counted_loop(fn: Function, loop: Loop,
                           preds: Optional[Dict[BasicBlock,
                                                List[BasicBlock]]] = None
                           ) -> Optional[CountedLoop]:
    """Match ``loop`` against the canonical counted shape, or None.

    ``preds`` is ``fn``'s :func:`predecessor_map`, for callers that
    already hold one; it is built here otherwise.

    Requirements (sufficient for the frontend's ``for`` lowering):

    * single out-of-loop predecessor of the header (preheader),
    * header is ``%iv = load %i; %c = cmp {lt,le} %iv, END; cbr``,
    * exactly one latch, ending ``load i; add step; store i``,
    * the only stores to the induction alloca inside the loop are in
      the latch; END is loop-invariant; STEP is a positive constant,
    * the single loop exit is the header's false edge.
    """
    if preds is None:
        preds = predecessor_map(fn)
    preheader = loop_preheader(loop, preds)
    if preheader is None:
        return None
    latches = loop.latches()
    if len(latches) != 1:
        return None
    latch = latches[0]

    header = loop.header
    pattern = _match_header(header, loop)
    if pattern is None:
        return None
    ivar, end, pred, compare, exit_block, end_computation = pattern

    step = _match_latch(latch, ivar)
    if step is None or step <= 0:
        return None

    # The induction alloca must only be stored in the latch (inside the
    # loop) and must actually be an alloca in this function.
    if not isinstance(ivar, Alloca):
        return None
    for block in loop.blocks:
        for inst in block.instructions:
            if isinstance(inst, Store) and inst.pointer is ivar \
                    and block is not latch:
                return None

    # Single exit: only the header may leave the loop.
    for from_block, to_block in loop.exit_edges():
        if from_block is not header or to_block is not exit_block:
            return None

    start = _find_start_value(preheader, ivar)
    if start is None or not _is_invariant_value(start, loop):
        return None

    return CountedLoop(loop, ivar, start, end, step, pred, preheader,
                       exit_block, latch, compare, end_computation)


def _match_header(header: BasicBlock, loop: Loop):
    insts = header.instructions
    if len(insts) < 3:
        return None
    term = insts[-1]
    if not isinstance(term, CondBranch):
        return None
    compare = term.condition
    if not isinstance(compare, Compare) or compare.parent is not header:
        return None
    if compare.pred not in ("lt", "le"):
        return None
    load = compare.lhs
    if not isinstance(load, Load) or load.parent is not header:
        return None
    ivar = load.pointer
    if term.if_true in loop.blocks and term.if_false not in loop.blocks:
        exit_block = term.if_false
    else:
        return None
    # The bound may be computed in the header from loop-invariant
    # memory (e.g. ``i < n`` loads the local n each iteration); gather
    # that computation so callers can clone it above the loop.
    end_computation = _invariant_computation(compare.rhs, header, loop)
    if end_computation is None:
        return None
    allowed = {load, compare, term} | set(end_computation)
    for inst in insts:
        if inst not in allowed:
            return None
    return (ivar, compare.rhs, compare.pred, compare, exit_block,
            end_computation)


def _invariant_computation(value: Value, header: BasicBlock,
                           loop: Loop) -> Optional[List[Instruction]]:
    """Header instructions computing a loop-invariant ``value``.

    Returns them in block order, or None if the value may vary across
    iterations.  An empty list means the value is already invariant.
    """
    if _is_invariant_value(value, loop):
        return []
    if not isinstance(value, Instruction) or value.parent is not header:
        return None
    needed: Set[Instruction] = set()
    work: List[Instruction] = [value]
    while work:
        inst = work.pop()
        if inst in needed:
            continue
        needed.add(inst)
        if isinstance(inst, Load):
            if not _is_stable_location(inst.pointer, loop):
                return None
            continue
        if not isinstance(inst, (BinaryOp, Compare)) \
                and inst.opcode != "cast":
            return None
        for operand in inst.operands:
            if _is_invariant_value(operand, loop):
                continue
            if isinstance(operand, Instruction) \
                    and operand.parent is header:
                work.append(operand)
            else:
                return None
    return [inst for inst in header.instructions if inst in needed]


def _is_stable_location(pointer: Value, loop: Loop) -> bool:
    """True if loads of ``pointer`` are the same on every iteration:
    a non-escaping alloca with no stores inside the loop."""
    if not isinstance(pointer, Alloca):
        return False
    fn = pointer.function
    if fn is None:
        return False
    for inst in fn.instructions():
        if isinstance(inst, Store):
            if inst.pointer is pointer and inst.parent in loop.blocks:
                return False
            if inst.value is pointer:
                return False  # address escapes into memory
        elif isinstance(inst, Load):
            continue
        elif pointer in inst.operands:
            return False  # address escapes into a call/gep/cast
    return True


def _match_latch(latch: BasicBlock, ivar: Value) -> Optional[int]:
    """Return the constant step if the latch is ``i += step``."""
    step: Optional[int] = None
    for inst in latch.instructions:
        if isinstance(inst, Store) and inst.pointer is ivar:
            add = inst.value
            if not isinstance(add, BinaryOp) or add.op != "add":
                return None
            lhs, rhs = add.lhs, add.rhs
            if isinstance(lhs, Load) and lhs.pointer is ivar \
                    and isinstance(rhs, Constant):
                candidate = int(rhs.value)
            elif isinstance(rhs, Load) and rhs.pointer is ivar \
                    and isinstance(lhs, Constant):
                candidate = int(lhs.value)
            else:
                return None
            if step is not None:
                return None  # two updates
            step = candidate
    return step


def _find_start_value(preheader: BasicBlock, ivar: Value) -> Optional[Value]:
    start: Optional[Value] = None
    for inst in preheader.instructions:
        if isinstance(inst, Store) and inst.pointer is ivar:
            start = inst.value
    return start


def _is_invariant_value(value: Value, loop: Loop) -> bool:
    """Is ``value`` guaranteed to be the same on every loop iteration?"""
    if isinstance(value, (Constant, Argument, GlobalVariable)):
        return True
    if isinstance(value, Instruction):
        return value.parent not in loop.blocks
    return False
