"""Communication overlap: hoist HtoD copies, sink write-backs, go async.

Runs after map promotion when the streams subsystem is enabled
(``CgcmConfig(streams=True)``).  Three rewrites, all proved legal with
the same :class:`ModRefAnalysis` machinery map promotion trusts:

* **Hoist** every ``map``/``mapArray`` as early as its producing
  stores allow -- first within its block, then up the immediate-
  dominator chain through control-equivalent blocks -- so the HtoD
  copy is in flight while the CPU still initializes *other* units.
* **Sink** every ``unmap`` (keeping an adjacent ``release`` of the
  same pointer glued behind it) past following CPU code that neither
  reads nor writes the unit, so independent work issues before the
  host would ever wait on the DtoH.
* **Rewrite** the moved calls to their asynchronous variants
  (``mapAsync``/``unmapAsync``/...) and insert a ``cgcmSync`` in front
  of the first instruction that touches a deferred write-back's unit
  on every CFG path leaving the write-back (loop back edges included),
  so the ordering is explicit in the IR and statically checkable by
  the happens-before auditor (``staticcheck/hbcheck``).  The
  ``CgcmRuntime`` load/store guard, which synchronizes the d2h stream
  before the CPU observes the region, remains as a safety net for
  units the alias analysis cannot resolve -- so the sanitizer, the
  differential oracle, and the static mapping-state verifier all see
  exactly the coherence protocol they already check.

Motion legality, in one place (``_crossable``):

* never cross a kernel launch (epochs advance per launch; moving a
  map/unmap over one changes what the run-time copies),
* never cross a run-time call whose unit may alias ours (refcount and
  coherence order must be preserved per unit),
* a hoisted map must not cross anything that may *write* its unit
  (the copy would ship stale bytes),
* a sunk unmap must not cross anything that may read *or* write its
  unit (the CPU would observe pre-write-back data),
* operands must stay available (a call never crosses a definition it
  depends on, and only hops to blocks its operand chain dominates).

Cross-block hops additionally require the source and target blocks to
be control-equivalent (target dominates source, source postdominates
target, same natural-loop membership), so execution counts -- and with
them reference counts -- are preserved exactly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from ..analysis.alias import (Root, UNKNOWN, is_identified, may_alias_roots,
                              underlying_objects)
from ..analysis.dominators import DominatorTree, PostDominatorTree
from ..analysis.loops import find_loops
from ..analysis.modref import ModRefAnalysis
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Call, Cast, GetElementPtr, Instruction,
                               LaunchKernel, Store)
from ..ir.module import Module
from ..ir.values import Constant, Value
from ..runtime.api import (ARRAY_FUNCTIONS, ASYNC_VARIANTS,
                           MAP_FUNCTIONS, RELEASE_FUNCTIONS,
                           RUNTIME_FUNCTION_NAMES, RUNTIME_SIGNATURES,
                           SYNC_FUNCTION, UNMAP_FUNCTIONS)
from .contract import PassContract

#: Comm overlap renames managed calls to their async twins and inserts
#: ``cgcmSync`` barriers, nothing else: twin-normalized the runtime
#: calls must match, and every async operation it introduces owes the
#: happens-before auditor a static ordering proof.
CONTRACT = PassContract(stage="comm-overlap",
                        runtime_calls="twin-normalized",
                        check_hb=True)

#: Entry points whose transfers cover the array unit *and* every unit
#: its stored pointers reference.
_ARRAY_CALLS = frozenset(ARRAY_FUNCTIONS)

#: Safety bound on dominator-chain hops per hoisted call.
_MAX_HOPS = 32


class CommOverlap:
    """The communication-overlap pass over one module."""

    def __init__(self, module: Module):
        self.module = module
        #: Each queried value's alias roots, for this run.  The pass
        #: moves call groups, renames calls to their async twins and
        #: inserts ``cgcmSync``: it adds and removes no store and no
        #: address use, so no value's roots change while it runs.
        self.roots: Dict[Value, FrozenSet[Root]] = {}
        self.modref = ModRefAnalysis(self.roots)
        self.stats = {"maps_hoisted": 0, "block_hops": 0,
                      "unmaps_sunk": 0, "async_rewrites": 0,
                      "syncs_inserted": 0}
        self._element_cache: Dict[FrozenSet[Root],
                                  Optional[FrozenSet[Root]]] = {}

    def run(self) -> Dict[str, int]:
        for fn in self.module.defined_functions():
            self._process_function(fn)
        return self.stats

    # -- per-function driver -----------------------------------------------

    def _process_function(self, fn: Function) -> None:
        calls = [inst for inst in fn.instructions()
                 if isinstance(inst, Call)
                 and inst.callee.name in RUNTIME_FUNCTION_NAMES]
        if not any(c.callee.name in MAP_FUNCTIONS
                   or c.callee.name in UNMAP_FUNCTIONS for c in calls):
            return
        self._doms = DominatorTree(fn)
        self._postdoms = PostDominatorTree(fn)
        self._loops_of = self._loop_membership(fn)
        self._reach = self._reachability(fn)
        for call in calls:
            if call.callee.name in MAP_FUNCTIONS:
                self._hoist_map(call)
        for call in calls:
            if call.callee.name in UNMAP_FUNCTIONS:
                self._sink_unmap(call)
        for call in calls:
            replacement = ASYNC_VARIANTS.get(call.callee.name)
            if replacement is not None:
                call.callee = self.module.declare_function(
                    replacement, RUNTIME_SIGNATURES[replacement])
                self.stats["async_rewrites"] += 1
        for call in calls:
            if call.callee.name in UNMAP_FUNCTIONS:
                self._insert_sync_after(call)

    # -- CFG facts ----------------------------------------------------------

    def _loop_membership(self, fn: Function) -> Dict[BasicBlock, FrozenSet]:
        membership: Dict[BasicBlock, Set] = {b: set() for b in fn.blocks}
        for loop in find_loops(fn):
            for block in loop.blocks:
                membership[block].add(loop)
        return {b: frozenset(s) for b, s in membership.items()}

    def _reachability(self, fn: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
        """block -> every block reachable from it (successor closure)."""
        reach: Dict[BasicBlock, Set[BasicBlock]] = {}
        for block in fn.blocks:
            seen: Set[BasicBlock] = set()
            work = list(block.successors)
            while work:
                current = work.pop()
                if current in seen:
                    continue
                seen.add(current)
                work.extend(current.successors)
            reach[block] = seen
        return reach

    # -- legality -----------------------------------------------------------

    def _unit_roots(self, call: Call) -> Optional[FrozenSet[Root]]:
        roots = underlying_objects(call.args[0], self.roots)
        if not roots or any(r is UNKNOWN or not is_identified(r)
                            for r in roots):
            return None
        if call.callee.name in _ARRAY_CALLS:
            # A pointer-array transfer also copies every unit its
            # elements reference: legality must cover those too.
            elements = self._element_roots(roots)
            if elements is None:
                return None
            roots |= elements
        return roots

    def _element_roots(
            self, array_roots: FrozenSet[Root]) -> Optional[FrozenSet[Root]]:
        """Units the array's stored pointers may reference (module-wide
        closed-world scan), or None when any element is untraceable."""
        cached = self._element_cache.get(array_roots)
        if cached is not None or array_roots in self._element_cache:
            return cached
        out: Set[Root] = set()
        result: Optional[FrozenSet[Root]] = None
        for fn in self.module.defined_functions():
            for inst in fn.instructions():
                if not isinstance(inst, Store):
                    continue
                pointer_roots = underlying_objects(inst.pointer, self.roots)
                if not any(r in pointer_roots for r in array_roots):
                    continue
                for value_root in underlying_objects(inst.value,
                                                     self.roots):
                    if isinstance(value_root, Constant):
                        continue  # null / literal: no unit
                    if value_root is UNKNOWN \
                            or not is_identified(value_root):
                        self._element_cache[array_roots] = None
                        return None
                    out.add(value_root)
        result = frozenset(out)
        self._element_cache[array_roots] = result
        return result

    def _operand_deps(self, call: Call) -> Set[Instruction]:
        """Every instruction the call's operands (transitively) use."""
        deps: Set[Instruction] = set()
        work: List[Value] = list(call.operands)
        while work:
            value = work.pop()
            if isinstance(value, Instruction) and value not in deps:
                deps.add(value)
                work.extend(value.operands)
        return deps

    def _crossable(self, inst: Instruction, roots: FrozenSet[Root],
                   deps: Set[Instruction], allow_ref: bool) -> bool:
        """May the managed call move across ``inst``?"""
        if inst in deps:
            return False
        if isinstance(inst, LaunchKernel):
            return False
        if isinstance(inst, Call) \
                and inst.callee.name in RUNTIME_FUNCTION_NAMES:
            if inst.callee.name in ("declareAlloca", SYNC_FUNCTION):
                # declareAlloca's unit is the call itself (caught by
                # the dependency test when related); a sync is a host
                # barrier for write-backs -- never reorder around it.
                return inst.callee.name != SYNC_FUNCTION
            if inst.callee.name == "declareGlobal":
                # args[0] is the registration *name* string; the unit
                # being registered is args[1].
                other = underlying_objects(inst.args[1], self.roots)
                if any(r is UNKNOWN for r in other):
                    return False
                return not may_alias_roots(roots, other)
            other = self._unit_roots(inst)
            if other is None:
                return False
            return not may_alias_roots(roots, other)
        for root in roots:
            mod, ref = self.modref.instruction_mod_ref(inst, root)
            if mod or (ref and not allow_ref):
                return False
        return True

    # -- map hoisting --------------------------------------------------------

    def _hoist_map(self, call: Call) -> None:
        roots = self._unit_roots(call)
        if roots is None or call.parent is None:
            return
        # The call travels as a *group* with the contiguous run of pure
        # address computations (casts, GEPs) directly above it that
        # feed its operands: map promotion synthesizes exactly such a
        # chain for every promoted call, and leaving it behind would
        # pin the call in place.  Hoisting a side-effect-free
        # computation is safe for any *other* users too -- every
        # motion target dominates the original position.
        group = self._movable_group(call)
        deps = self._operand_deps(call) - set(group)
        moved = False
        for _ in range(_MAX_HOPS):
            moved |= self._hoist_within_block(group, roots, deps)
            target = self._hop_target(group, roots, deps)
            if target is None:
                break
            block = group[0].parent
            assert block is not None
            for inst in group:
                block.instructions.remove(inst)
            for inst in group:
                target.insert_before_terminator(inst)
            self.stats["block_hops"] += 1
            moved = True
        if moved:
            self.stats["maps_hoisted"] += 1

    def _movable_group(self, call: Call) -> List[Instruction]:
        """``call`` plus the contiguous preceding address computations
        feeding its operands, in program order."""
        block = call.parent
        assert block is not None
        full_deps = self._operand_deps(call)
        group: List[Instruction] = [call]
        index = block.index(call) - 1
        while index >= 0:
            inst = block.instructions[index]
            if not isinstance(inst, (Cast, GetElementPtr)) \
                    or inst not in full_deps:
                break
            group.insert(0, inst)
            index -= 1
        return group

    def _hoist_within_block(self, group: List[Instruction],
                            roots: FrozenSet[Root],
                            deps: Set[Instruction]) -> bool:
        block = group[0].parent
        assert block is not None
        index = block.index(group[0])
        new_index = index
        while new_index > 0 and self._crossable(
                block.instructions[new_index - 1], roots, deps,
                allow_ref=True):
            new_index -= 1
        if new_index == index:
            return False
        for inst in group:
            block.instructions.remove(inst)
        for offset, inst in enumerate(group):
            block.insert(new_index + offset, inst)
        return True

    def _hop_target(self, group: List[Instruction], roots: FrozenSet[Root],
                    deps: Set[Instruction]) -> Optional[BasicBlock]:
        """The nearest control-equivalent dominator the group can move
        to, or None.  The group must already sit at its block's top;
        the walk may pass *through* non-equivalent dominators (loop
        headers), provided every block on any path from the target to
        here -- loop bodies included -- is fully crossable."""
        block = group[0].parent
        assert block is not None
        if block.instructions[0] is not group[0]:
            return None
        # Blocks that can reach `block`, for path overapproximation.
        into = {b for b in self._reach if block in self._reach[b]}
        candidate = self._doms.immediate_dominator(block)
        for _ in range(_MAX_HOPS):
            if candidate is None or candidate is block:
                return None
            legal = True
            # Control equivalence: same execution count at both points.
            if not self._postdoms.postdominates(block, candidate):
                legal = False
            if self._loops_of.get(candidate) != self._loops_of.get(block):
                legal = False
            # Operand availability at the end of the candidate.
            if legal:
                for dep in deps:
                    if dep.parent is None \
                            or not self._doms.dominates(dep.parent,
                                                        candidate):
                        return None  # never available further up either
            # Everything on any candidate->block path must be
            # crossable (the reachability intersection overapproximates
            # the path set, which can only add barriers, never hide
            # one).  Checked even for non-equivalent candidates: the
            # walk only continues upward through code it could cross.
            between = self._reach[candidate] & into
            between.discard(block)
            between.discard(candidate)
            for path_block in between:
                for inst in path_block.instructions:
                    if not self._crossable(inst, roots, deps,
                                           allow_ref=True):
                        return None
            if legal:
                return candidate
            # Candidate itself becomes path code for the next hop: all
            # of it (terminator aside) must be crossable too.
            for inst in candidate.instructions:
                if inst is not candidate.terminator \
                        and not self._crossable(inst, roots, deps,
                                                allow_ref=True):
                    return None
            candidate = self._doms.immediate_dominator(candidate)
        return None

    # -- unmap sinking -------------------------------------------------------

    def _sink_unmap(self, call: Call) -> None:
        roots = self._unit_roots(call)
        block = call.parent
        if roots is None or block is None:
            return
        deps = self._operand_deps(call)
        index = block.index(call)
        # Keep an immediately-following release of the same pointer
        # glued to the unmap: the write-back must issue before the
        # reference drops (the release may free the device buffer).
        companion: Optional[Call] = None
        if index + 1 < len(block.instructions):
            nxt = block.instructions[index + 1]
            if isinstance(nxt, Call) \
                    and nxt.callee.name in RELEASE_FUNCTIONS \
                    and nxt.args and call.args \
                    and nxt.args[0] is call.args[0]:
                companion = nxt
        tail = 2 if companion is not None else 1
        limit = len(block.instructions) - 1  # never cross the terminator
        new_end = index + tail
        while new_end < limit and self._crossable(
                block.instructions[new_end], roots, deps, allow_ref=False):
            new_end += 1
        if new_end == index + tail:
            return
        block.instructions.remove(call)
        if companion is not None:
            block.instructions.remove(companion)
        insert_at = new_end - tail
        block.insert(insert_at, call)
        if companion is not None:
            block.insert(insert_at + 1, companion)
        self.stats["unmaps_sunk"] += 1

    # -- explicit syncs -------------------------------------------------------

    def _touches(self, inst: Instruction, roots: FrozenSet[Root]) -> bool:
        for root in roots:
            mod, ref = self.modref.instruction_mod_ref(inst, root)
            if mod or ref:
                return True
        return False

    def _insert_sync_after(self, call: Call) -> None:
        """Place ``cgcmSync`` before the first instruction that touches
        the deferred write-back's unit, on *every* CFG path leaving
        ``call`` (loop back edges included, so an in-loop write-back
        followed next iteration by a read of the unit is ordered too).
        Each path stops at the first existing sync, at the issue point
        itself, or at the inserted barrier; paths that never touch the
        unit get no sync -- the static happens-before auditor
        (``staticcheck/hbcheck``) checks exactly this placement, and
        the run-time load/store guard remains as a safety net for the
        unit shapes the alias analysis cannot resolve."""
        roots = self._unit_roots(call)
        block = call.parent
        if roots is None or block is None:
            return
        unmap_loops = self._loops_of.get(block, frozenset())
        work = [(block, block.index(call) + 1)]
        visited: Set[BasicBlock] = set()
        while work:
            current, start = work.pop()
            stopped = False
            for position in range(start, len(current.instructions)):
                inst = current.instructions[position]
                if inst is call:
                    stopped = True  # looped back to the issue point
                    break
                if isinstance(inst, Call) \
                        and inst.callee.name == SYNC_FUNCTION:
                    stopped = True  # already synchronized on this path
                    break
                if self._touches(inst, roots):
                    self._emit_sync(current, position)
                    stopped = True
                    break
            if stopped:
                continue
            # About to walk into a loop that does not re-issue this
            # write-back but does touch its unit somewhere inside: a
            # barrier placed at the touch would execute every
            # iteration, so put one single barrier in front of the
            # loop instead (it also orders everything beyond it, so
            # this path is done).
            current_loops = self._loops_of.get(current, frozenset())
            entering_touchy_loop = any(
                loop not in current_loops and loop not in unmap_loops
                and self._loop_touches(loop, roots)
                for succ in current.successors
                for loop in self._loops_of.get(succ, frozenset()))
            if entering_touchy_loop:
                terminator = len(current.instructions) - 1
                previous = current.instructions[terminator - 1] \
                    if terminator > 0 else None
                if not (isinstance(previous, Call)
                        and previous.callee.name == SYNC_FUNCTION):
                    self._emit_sync(current, terminator)
                continue
            for succ in current.successors:
                if succ not in visited:
                    visited.add(succ)
                    work.append((succ, 0))

    def _emit_sync(self, block: BasicBlock, position: int) -> None:
        sync = Call(self.module.declare_function(
            SYNC_FUNCTION, RUNTIME_SIGNATURES[SYNC_FUNCTION]), [])
        block.insert(position, sync)
        self.stats["syncs_inserted"] += 1

    def _loop_touches(self, loop, roots: FrozenSet[Root]) -> bool:
        for loop_block in loop.blocks:
            for inst in loop_block.instructions:
                if self._touches(inst, roots):
                    return True
        return False
