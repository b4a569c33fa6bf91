"""Map promotion: turn cyclic communication patterns into acyclic ones.

Paper section 5.1 / Algorithm 4.  For each region (loop body or whole
function), group the run-time library calls by the pointer they manage
(a *candidate*).  If the pointer's value cannot change across the
region (``pointsToChanges`` is false) and CPU code in the region never
reads or writes the allocation unit (``modOrRef`` is false), then:

* copy the ``map`` above the region,
* move the ``unmap`` below the region (delete the in-region DtoH),
* copy the ``release`` below the region.

In-region ``map``/``release`` pairs remain: with the hoisted reference
held, they are cheap reference-count updates and no data moves inside
the loop.  The pass iterates to convergence, climbing loop nests and
the call graph (recursive functions are ineligible).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Call, Cast,
                               GetElementPtr, Instruction, Load, Store)
from ..ir.module import Module
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..analysis.alias import (UNKNOWN, is_identified, ordered_roots,
                              underlying_objects)
from ..analysis.callgraph import CallGraph
from ..analysis.loops import Loop, find_loops, loop_preheader
from ..analysis.cfg import predecessor_map
from ..analysis.modref import ModRefAnalysis
from ..runtime import api
from ..runtime.api import (MAP_FUNCTIONS, RELEASE_FUNCTIONS,
                           RUNTIME_FUNCTION_NAMES, UNMAP_FUNCTIONS)
from .contract import PassContract

#: Map promotion hoists, sinks, and deletes managed calls, so the
#: runtime-call multiset legitimately changes; the mapping-state
#: regression check is the guard that the hoisted live ranges never
#: cross a CPU access of the unit.
CONTRACT = PassContract(stage="map-promotion")

_MAX_ITERATIONS = 10


def _slot_stable_in_region(pointer: Value, blocks) -> bool:
    """May a load of ``pointer`` be hoisted above the region?  True
    for direct-use scalar slots (allocas and global pointer variables)
    with no stores inside the region -- every in-region load then
    yields the value the slot already holds at region entry."""
    from ..analysis.alias import _is_direct_global_slot, _is_direct_slot
    if isinstance(pointer, Alloca):
        if not pointer.allocated_type.is_scalar:
            return False
        if not _is_direct_slot(pointer):
            return False
        fn = pointer.function
        if fn is None:
            return False
        return not any(isinstance(i, Store) and i.pointer is pointer
                       and i.parent in blocks
                       for i in fn.instructions())
    if isinstance(pointer, GlobalVariable):
        if not pointer.value_type.is_scalar:
            return False
        some_block = next(iter(blocks), None)
        if some_block is None or some_block.parent is None:
            return False
        fn = some_block.parent
        module = fn.module
        if module is None or not _is_direct_global_slot(pointer, module):
            return False
        # Stores inside the region, in this function or in anything it
        # calls from within the region, make the slot unstable.
        for block in blocks:
            for inst in block.instructions:
                if isinstance(inst, Store) and inst.pointer is pointer:
                    return False
                if isinstance(inst, Call) \
                        and not inst.callee.is_declaration \
                        and _function_stores_global(inst.callee, pointer):
                    return False
        return True
    return False


def _function_stores_global(fn: Function, gv: GlobalVariable,
                            _seen=None) -> bool:
    seen = _seen or set()
    if fn in seen:
        return True  # recursion: conservative
    seen.add(fn)
    for inst in fn.instructions():
        if isinstance(inst, Store) and inst.pointer is gv:
            return True
        if isinstance(inst, Call) and not inst.callee.is_declaration \
                and _function_stores_global(inst.callee, gv, seen):
            return True
    return False


class _Candidate:
    """All run-time calls in one region that manage one pointer."""

    def __init__(self, pointer: Value):
        self.pointer = pointer
        self.maps: List[Call] = []
        self.unmaps: List[Call] = []
        self.releases: List[Call] = []

    @property
    def is_array(self) -> bool:
        return bool(self.maps) \
            and self.maps[0].callee.name in api.MAP_ARRAY_FUNCTIONS


class MapPromotion:
    """The map-promotion pass over one module."""

    def __init__(self, module: Module):
        self.module = module
        self.promoted_loops = 0
        self.promoted_functions = 0

    def run(self) -> None:
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for fn in list(self.module.defined_functions()):
                if fn.is_kernel:
                    continue
                changed |= self._promote_in_function(fn)
            changed |= self._promote_across_calls()
            if not changed:
                return

    # -- loop regions ------------------------------------------------------

    def _promote_in_function(self, fn: Function) -> bool:
        # The pass adds no block and changes no terminator, so one loop
        # forest and one predecessor map serve every promotion here.
        preds = predecessor_map(fn)
        loops = sorted(find_loops(fn, preds), key=lambda l: -l.depth)
        changed = False
        progress = True
        while progress:
            progress = False
            for loop in loops:  # innermost first
                if self._promote_loop(fn, loop, preds):
                    self.promoted_loops += 1
                    progress = True
                    changed = True
                    # Restart: the call lists changed, and promoting an
                    # inner loop can make its parent promotable.
                    break
        return changed

    def _promote_loop(self, fn: Function, loop: Loop,
                      preds: Dict[BasicBlock, List[BasicBlock]]) -> bool:
        preheader = loop_preheader(loop, preds)
        if preheader is None:
            return False
        exit_block = self._single_exit_block(loop, preds)
        if exit_block is None:
            return False
        modref = ModRefAnalysis()
        changed = False
        for candidate in self._collect_candidates(loop.blocks):
            if not candidate.maps or not candidate.unmaps:
                # No DtoH left in the region means the candidate was
                # already promoted (or never copied back): nothing to
                # gain, and skipping keeps the pass idempotent.
                continue
            if self._cpu_touches_unit(candidate.pointer, loop, modref):
                continue
            hoisted = self._materialize_above(candidate.pointer, loop,
                                              preheader)
            if hoisted is None:
                continue
            self._apply_loop_promotion(fn, candidate, hoisted, preheader,
                                       exit_block)
            changed = True
        return changed

    def _single_exit_block(self, loop: Loop,
                           preds: Dict[BasicBlock, List[BasicBlock]]
                           ) -> Optional[BasicBlock]:
        """The unique exit target whose predecessors all lie in the
        loop (safe to place unmap/release at its top)."""
        targets = {to for _, to in loop.exit_edges()}
        if len(targets) != 1:
            return None
        target = next(iter(targets))
        for pred in preds[target]:
            if pred not in loop.blocks:
                return None
        return target

    def _collect_candidates(self, blocks: Set[BasicBlock]
                            ) -> List[_Candidate]:
        by_pointer: Dict[Value, _Candidate] = {}
        order: List[_Candidate] = []
        # Iterate in the parent function's block order, not the set's:
        # set order varies per process/run, and the hoisted map calls
        # are emitted in candidate order, so the output IR would too.
        any_block = next(iter(blocks), None)
        if any_block is not None and any_block.parent is not None:
            ordered = [b for b in any_block.parent.blocks if b in blocks]
        else:
            ordered = sorted(blocks, key=lambda b: b.name)
        for block in ordered:
            for inst in block.instructions:
                if not isinstance(inst, Call):
                    continue
                name = inst.callee.name
                if name not in RUNTIME_FUNCTION_NAMES or not inst.args:
                    continue
                pointer = inst.args[0]
                candidate = by_pointer.get(pointer)
                if candidate is None:
                    candidate = _Candidate(pointer)
                    by_pointer[pointer] = candidate
                    order.append(candidate)
                if name in MAP_FUNCTIONS:
                    candidate.maps.append(inst)
                elif name in UNMAP_FUNCTIONS:
                    candidate.unmaps.append(inst)
                elif name in RELEASE_FUNCTIONS:
                    candidate.releases.append(inst)
        # Deterministic order by first map position.
        return [c for c in order if c.maps or c.unmaps or c.releases]

    # -- pointsToChanges ------------------------------------------------------

    def _materialize_above(self, pointer: Value, loop: Optional[Loop],
                           preheader: BasicBlock,
                           arg_map: Optional[Dict[Value, Value]] = None
                           ) -> Optional[Value]:
        """Make ``pointer`` available at the end of ``preheader``.

        Returns a value computable there (cloning GEP/cast chains when
        the computation lives inside the region), or None when the
        pointer may change across iterations (``pointsToChanges``).
        """
        plan: List[Instruction] = []
        mapping: Dict[Value, Value] = dict(arg_map or {})

        def visit(value: Value) -> bool:
            if value in mapping:
                return True
            if isinstance(value, (Constant, GlobalVariable)):
                mapping[value] = value
                return True
            if arg_map is None and isinstance(value, Argument):
                mapping[value] = value
                return True
            if isinstance(value, Instruction):
                if loop is not None and arg_map is None \
                        and value.parent not in loop.blocks:
                    mapping[value] = value  # invariant: defined outside
                    return True
                if isinstance(value, (GetElementPtr, Cast, BinaryOp)):
                    if all(visit(op) for op in value.operands):
                        plan.append(value)
                        return True
                if isinstance(value, Load) and loop is not None \
                        and arg_map is None \
                        and _slot_stable_in_region(value.pointer,
                                                   loop.blocks):
                    if visit(value.pointer):
                        plan.append(value)
                        return True
                return False
            return False

        if not visit(pointer):
            return None
        for inst in plan:
            operands = [mapping.get(op, op) for op in inst.operands]
            if isinstance(inst, GetElementPtr):
                clone = GetElementPtr(operands[0], operands[1:])
            elif isinstance(inst, Cast):
                clone = Cast(inst.kind, operands[0], inst.type)
            elif isinstance(inst, Load):
                clone = Load(operands[0])
            else:
                assert isinstance(inst, BinaryOp)
                clone = BinaryOp(inst.op, operands[0], operands[1])
            clone.name = preheader.parent.unique_name("promo")
            preheader.insert_before_terminator(clone)
            mapping[inst] = clone
        return mapping[pointer]

    # -- modOrRef ------------------------------------------------------------------

    def _cpu_touches_unit(self, pointer: Value, loop: Loop,
                          modref: ModRefAnalysis) -> bool:
        for root in ordered_roots(underlying_objects(pointer)):
            mod, ref = modref.region_mod_ref(loop.blocks, root)
            if mod or ref:
                return True
        return False

    # -- the loop rewrite --------------------------------------------------------------

    def _apply_loop_promotion(self, fn: Function, candidate: _Candidate,
                              hoisted: Value, preheader: BasicBlock,
                              exit_block: BasicBlock) -> None:
        map_callee = candidate.maps[0].callee
        depth = 2 if candidate.is_array else 1
        unmap_callee = self.module.get_function(api.unmap_name(depth))
        release_callee = self.module.get_function(api.release_name(depth))

        # Copy map above the region.
        map_call = Call(map_callee, [hoisted])
        map_call.name = fn.unique_name("promo.map")
        preheader.insert_before_terminator(map_call)
        # Move unmap below the region; copy release below the region.
        unmap_call = Call(unmap_callee, [hoisted])
        release_call = Call(release_callee, [hoisted])
        exit_block.insert(0, unmap_call)
        exit_block.insert(1, release_call)
        # Delete every in-region DtoH (the unmaps).
        for call in candidate.unmaps:
            call.erase()

    # -- function regions ------------------------------------------------------------------

    def _promote_across_calls(self) -> bool:
        callgraph = CallGraph(self.module)
        modref = ModRefAnalysis()
        changed = False
        for fn in callgraph.bottom_up():
            if fn.is_kernel or fn.name == "main":
                continue
            if callgraph.is_recursive(fn):
                continue
            call_sites = callgraph.call_sites_of(fn)
            if not call_sites:
                continue
            if self._promote_function(fn, call_sites, modref):
                self.promoted_functions += 1
                changed = True
        return changed

    def _promote_function(self, fn: Function, call_sites: List[Call],
                          modref: ModRefAnalysis) -> bool:
        changed = False
        for candidate in self._collect_candidates(set(fn.blocks)):
            if not candidate.maps or not candidate.unmaps:
                continue  # already promoted: keeps the pass idempotent
            if not self._expressible_in_callers(candidate.pointer):
                continue
            touched = False
            for root in ordered_roots(underlying_objects(candidate.pointer)):
                if isinstance(root, Argument):
                    touched |= self._argument_unit_touched(
                        fn, root, call_sites, modref)
                else:
                    mod, ref = modref.region_mod_ref(fn.blocks, root)
                    touched |= mod or ref
                if touched:
                    break
            if touched:
                continue
            self._apply_function_promotion(fn, candidate, call_sites)
            changed = True
        return changed

    def _argument_unit_touched(self, fn: Function, arg: Argument,
                               call_sites: List[Call],
                               modref: ModRefAnalysis) -> bool:
        """Call-site-aware mod/ref for a candidate rooted at one of the
        function's own arguments.

        A bare Argument root aliases everything, which would block
        every hoist.  Instead: collect the identified objects the
        actual arguments may point to (conservative if any call site's
        actual is untraceable), then ask whether the function's CPU
        code touches *those* units or accesses memory through
        argument/unknown-rooted pointers (which could be this unit).
        """
        from ..ir.instructions import Load, Store

        unit_roots = set()
        for site in call_sites:
            if arg.index >= len(site.args):
                return True
            roots = underlying_objects(site.args[arg.index])
            if any(not is_identified(root) for root in roots):
                return True
            unit_roots |= set(roots)
        for root in ordered_roots(unit_roots):
            mod, ref = modref.region_mod_ref(fn.blocks, root)
            if mod or ref:
                return True
        for inst in fn.instructions():
            if isinstance(inst, (Load, Store)):
                roots = underlying_objects(inst.pointer)
                if any(isinstance(r, Argument) or r is UNKNOWN
                       for r in roots):
                    return True
        return False

    def _expressible_in_callers(self, pointer: Value) -> bool:
        """Can the pointer be recomputed at every call site (it chains
        only through the function's arguments, globals, constants)?"""
        def visit(value: Value, depth: int = 0) -> bool:
            if depth > 32:
                return False
            if isinstance(value, (Constant, GlobalVariable, Argument)):
                return True
            if isinstance(value, (GetElementPtr, Cast, BinaryOp)):
                return all(visit(op, depth + 1) for op in value.operands)
            if isinstance(value, Load) \
                    and isinstance(value.pointer, GlobalVariable) \
                    and value.function is not None \
                    and _slot_stable_in_region(value.pointer,
                                               set(value.function.blocks)):
                # The callee never rewrites the slot, so the caller
                # observes the same pointer value.
                return True
            return False
        return visit(pointer)

    def _apply_function_promotion(self, fn: Function,
                                  candidate: _Candidate,
                                  call_sites: List[Call]) -> None:
        map_callee = candidate.maps[0].callee
        depth = 2 if candidate.is_array else 1
        unmap_callee = self.module.get_function(api.unmap_name(depth))
        release_callee = self.module.get_function(api.release_name(depth))

        for site in call_sites:
            caller_block = site.parent
            assert caller_block is not None
            caller_fn = caller_block.parent
            assert caller_fn is not None
            arg_map = {formal: actual
                       for formal, actual in zip(fn.args, site.args)}
            pointer, new_insts = self._clone_chain_at(
                candidate.pointer, arg_map, caller_fn)
            index = caller_block.index(site)
            for offset, inst in enumerate(new_insts):
                inst.parent = caller_block
                caller_block.instructions.insert(index + offset, inst)
            index = caller_block.index(site)
            map_call = Call(map_callee, [pointer])
            map_call.name = caller_fn.unique_name("promo.map")
            map_call.parent = caller_block
            caller_block.instructions.insert(index, map_call)
            index = caller_block.index(site)
            unmap_call = Call(unmap_callee, [pointer])
            release_call = Call(release_callee, [pointer])
            unmap_call.parent = caller_block
            release_call.parent = caller_block
            caller_block.instructions.insert(index + 1, unmap_call)
            caller_block.instructions.insert(index + 2, release_call)
        for call in candidate.unmaps:
            call.erase()

    def _clone_chain_at(self, pointer: Value, arg_map: Dict[Value, Value],
                        caller_fn: Function
                        ) -> Tuple[Value, List[Instruction]]:
        new_insts: List[Instruction] = []
        mapping: Dict[Value, Value] = dict(arg_map)

        def build(value: Value) -> Value:
            if value in mapping:
                return mapping[value]
            if isinstance(value, (Constant, GlobalVariable)):
                return value
            assert isinstance(value, (GetElementPtr, Cast, BinaryOp,
                                      Load))
            operands = [build(op) for op in value.operands]
            if isinstance(value, GetElementPtr):
                clone = GetElementPtr(operands[0], operands[1:])
            elif isinstance(value, Cast):
                clone = Cast(value.kind, operands[0], value.type)
            elif isinstance(value, Load):
                clone = Load(operands[0])
            else:
                clone = BinaryOp(value.op, operands[0], operands[1])
            clone.name = caller_fn.unique_name("promo")
            new_insts.append(clone)
            mapping[value] = clone
            return clone

        return build(pointer), new_insts
