"""Dominator and postdominator trees (Cooper-Harvey-Kennedy)."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.block import BasicBlock
from ..ir.function import Function
from .cfg import predecessor_map, reverse_postorder


class DominatorTree:
    """Immediate dominators for every reachable block of a function."""

    def __init__(self, fn: Function,
                 preds: Optional[Dict[BasicBlock, List[BasicBlock]]] = None):
        self.function = fn
        rpo = [b for b in reverse_postorder(fn)]
        if preds is None:
            preds = predecessor_map(fn)
        index = {block: i for i, block in enumerate(rpo)}
        entry = fn.entry_block
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[a] > index[b]:
                    a = idom[a]  # type: ignore[assignment]
                while index[b] > index[a]:
                    b = idom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is entry:
                    continue
                candidates = [p for p in preds[block]
                              if p in idom and p in index]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for pred in candidates[1:]:
                    new_idom = intersect(new_idom, pred)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        self._idom = idom

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The idom of ``block`` (the entry dominates itself)."""
        return self._idom.get(block)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        current: Optional[BasicBlock] = b
        while current is not None:
            if current is a:
                return True
            parent = self._idom.get(current)
            if parent is current:
                return False
            current = parent
        return False


class PostDominatorTree:
    """Immediate postdominators over the reversed CFG.

    Functions may have several ``ret``/``unreachable`` exits, so the
    reverse CFG is rooted at a virtual exit node whose predecessors are
    every block without successors.  Blocks that cannot reach any exit
    (infinite loops) have no postdominator information; for them
    :meth:`postdominates` conservatively answers False.
    """

    _VIRTUAL_EXIT = object()

    def __init__(self, fn: Function):
        self.function = fn
        virt = PostDominatorTree._VIRTUAL_EXIT
        cfg_preds = predecessor_map(fn)
        exits = [b for b in fn.blocks if not b.successors]

        # Reverse postorder of the *reversed* CFG from the virtual exit
        # (reverse-graph successors of a block are its CFG predecessors).
        visited = {virt}
        postorder: List[object] = []
        stack = [(virt, iter(exits))]
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(cfg_preds[succ])))
                    advanced = True
                    break
            if not advanced:
                postorder.append(node)
                stack.pop()
        rpo = list(reversed(postorder))
        index = {node: i for i, node in enumerate(rpo)}
        ipdom: Dict[object, object] = {virt: virt}

        def intersect(a: object, b: object) -> object:
            while a is not b:
                while index[a] > index[b]:
                    a = ipdom[a]
                while index[b] > index[a]:
                    b = ipdom[b]
            return a

        changed = True
        while changed:
            changed = False
            for block in rpo:
                if block is virt:
                    continue
                # Reverse-graph predecessors: CFG successors, plus the
                # virtual exit for exit blocks.
                preds = [s for s in block.successors
                         if s in ipdom and s in index]
                if not block.successors:
                    preds.append(virt)
                if not preds:
                    continue
                new_ipdom = preds[0]
                for pred in preds[1:]:
                    new_ipdom = intersect(new_ipdom, pred)
                if ipdom.get(block) is not new_ipdom:
                    ipdom[block] = new_ipdom
                    changed = True

        self._ipdom = ipdom

    def postdominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if every path from ``b`` to an exit passes through
        ``a`` (reflexive; conservatively False when ``b`` reaches no
        exit)."""
        virt = PostDominatorTree._VIRTUAL_EXIT
        if b not in self._ipdom:
            return False
        current: object = b
        while True:
            if current is a:
                return True
            if current is virt:
                return False
            parent = self._ipdom.get(current)
            if parent is None or parent is current:
                return False
            current = parent
