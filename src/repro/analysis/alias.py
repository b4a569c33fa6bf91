"""Underlying-object alias analysis.

CGCM's optimizations only need to reason about *allocation units*, so
the alias analysis is a simple underlying-object walk: trace a pointer
value through GEPs, casts, and selects to the objects it may be based
on (allocas, globals, heap allocations, arguments, or unknown).

Two pointers based on distinct identified objects cannot alias; any
involvement of an unknown root is conservatively treated as aliasing.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Tuple,
                    Union)

from ..ir.instructions import (Alloca, BinaryOp, Call, Cast, GetElementPtr,
                               Instruction, Load, Select, Store)
from ..ir.values import Argument, Constant, GlobalVariable, Value

from ..runtime.api import ADDRESS_OBSERVING_FUNCTIONS, MAP_FUNCTIONS

#: Sentinel root for pointers we cannot trace.
UNKNOWN = "<unknown>"

#: Externals whose result is a fresh allocation (an identified object).
_ALLOCATING_CALLS = frozenset({"malloc", "calloc", "realloc",
                               "declareAlloca"})

#: Run-time calls returning translated device pointers.
_MAP_CALLS = frozenset(MAP_FUNCTIONS)

Root = Union[Value, str]


def underlying_objects(value: Value,
                       memo: Optional[Dict[Value, FrozenSet[Root]]] = None
                       ) -> FrozenSet[Root]:
    """The set of objects ``value`` may be based on.

    ``memo`` keeps each queried value's roots for a caller that asks
    about the same values many times while its IR edits add and remove
    no store and no address use, so no value's roots can change (comm
    overlap only moves, renames and inserts runtime calls)."""
    if memo is None:
        return _roots_of(value, 0, {})
    roots = memo.get(value)
    if roots is None:
        roots = memo[value] = _roots_of(value, 0, {})
    return roots


def _roots_of(value: Value, depth: int,
              slots: Dict[Value, Optional[FrozenSet[Root]]]
              ) -> FrozenSet[Root]:
    """:func:`underlying_objects` of ``value`` within one query.

    ``slots`` maps each spill slot the query has expanded to its roots,
    and to None while it is being expanded: a pointer stored back into
    its own slot (``p = p + 1``) reaches the slot again, and that path
    gets UNKNOWN, as the depth cap would give it.  Each slot is
    expanded once per query; re-expanding it doubled the work for
    every such store."""
    if depth > 64:
        return frozenset({UNKNOWN})
    if isinstance(value, (GlobalVariable, Alloca, Argument)):
        return frozenset({value})
    if isinstance(value, Constant):
        return frozenset({value})  # null / literal address: distinct
    if isinstance(value, GetElementPtr):
        return _roots_of(value.pointer, depth + 1, slots)
    if isinstance(value, Cast):
        if value.kind in ("bitcast", "inttoptr", "ptrtoint"):
            return _roots_of(value.value, depth + 1, slots)
        return frozenset({UNKNOWN})
    if isinstance(value, Select):
        return (_roots_of(value.if_true, depth + 1, slots)
                | _roots_of(value.if_false, depth + 1, slots))
    if isinstance(value, BinaryOp) and value.op in ("add", "sub"):
        # Pointer arithmetic through integers: the pointer side carries
        # the object; integers contribute nothing.
        return (_roots_of(value.lhs, depth + 1, slots)
                | _roots_of(value.rhs, depth + 1, slots))
    if isinstance(value, Call):
        if value.callee.name in _ALLOCATING_CALLS:
            return frozenset({value})  # the call IS the object
        if value.callee.name in _MAP_CALLS:
            # Device pointers never alias host objects.
            return frozenset({value})
        return frozenset({UNKNOWN})
    if isinstance(value, Load):
        pointer = value.pointer
        if pointer in slots:
            expanded = slots[pointer]
            return expanded if expanded is not None \
                else frozenset({UNKNOWN})
        # See through clang -O0 spill slots: a load from an alloca that
        # is only ever directly loaded/stored yields the union of the
        # values stored into it.  Likewise for *global* pointer
        # variables (``double *image;``): the module is a closed world,
        # so if the global is only ever directly loaded/stored, every
        # value it can hold is visible.
        functions = None
        if isinstance(pointer, Alloca) and _is_direct_slot(pointer):
            functions = [pointer.function]
        elif isinstance(pointer, GlobalVariable):
            module = _module_of(value)
            if module is not None and _is_direct_global_slot(pointer,
                                                             module):
                functions = list(module.defined_functions())
        roots: FrozenSet[Root] = frozenset({UNKNOWN})
        if functions is not None:
            slots[pointer] = None
            stored: FrozenSet[Root] = frozenset()
            stored_any = False
            for fn in functions:
                for inst in fn.instructions():
                    if isinstance(inst, Store) and inst.pointer is pointer:
                        stored_any = True
                        stored |= _roots_of(inst.value, depth + 1, slots)
            if stored_any:
                roots = stored
        slots[pointer] = roots
        return roots
    return frozenset({UNKNOWN})


def _module_of(value: Value):
    if isinstance(value, Instruction) and value.parent is not None \
            and value.parent.parent is not None:
        return value.parent.parent.module
    return None


def _is_direct_global_slot(gv: GlobalVariable, module) -> bool:
    """Is this global only ever the direct target of loads/stores
    (never GEP'd, cast, or passed by address) across the whole module?
    Then every value it may hold is one of the visibly stored ones.

    Casts that only feed the run-time's registration/mapping entry
    points are exempt: they observe the slot's address, not its value.
    """
    benign_cast_users = frozenset(ADDRESS_OBSERVING_FUNCTIONS)
    for fn in module.defined_functions():
        uses = None
        for inst in fn.instructions():
            for operand in inst.operands:
                if operand is not gv:
                    continue
                direct = (isinstance(inst, Load)
                          and inst.pointer is gv) or \
                    (isinstance(inst, Store) and inst.pointer is gv
                     and inst.value is not gv)
                if direct:
                    continue
                if isinstance(inst, Cast):
                    if uses is None:
                        uses = fn.compute_uses()
                    users = uses.get(inst, [])
                    if users and all(
                            isinstance(u, Call)
                            and u.callee.name in benign_cast_users
                            for u in users):
                        continue
                return False
    return True


def _is_direct_slot(alloca: Alloca) -> bool:
    """Is this alloca only ever the direct target of loads/stores?"""
    fn = alloca.function
    if fn is None:
        return False
    for inst in fn.instructions():
        for operand in inst.operands:
            if operand is not alloca:
                continue
            direct = (isinstance(inst, Load) and inst.pointer is alloca) \
                or (isinstance(inst, Store) and inst.pointer is alloca
                    and inst.value is not alloca)
            if not direct:
                return False
    return True


def root_sort_key(root: Root) -> Tuple:
    """Deterministic ordering key for alias roots.

    ``underlying_objects`` returns frozensets whose iteration order
    varies between interpreter runs (hash randomization); passes that
    report roots or pick candidates from them must iterate in this
    order instead.  Sorts by kind, then by name/position: globals by
    name, arguments by (function, index), instructions (allocas, heap
    calls) by (function, block position, instruction position),
    constants by value, UNKNOWN last.
    """
    if isinstance(root, GlobalVariable):
        return (0, root.name, 0, 0)
    if isinstance(root, Argument):
        fn = root.function
        return (1, fn.name if fn is not None else "", root.index, 0)
    if isinstance(root, Instruction):
        block = root.parent
        fn = block.parent if block is not None else None
        if fn is not None and block is not None:
            try:
                return (2, fn.name, fn.blocks.index(block),
                        block.index(root))
            except ValueError:
                pass
        return (2, "", 0, 0)
    if isinstance(root, Constant):
        return (3, repr(root.value), 0, 0)
    return (4, str(root), 0, 0)


def ordered_roots(roots: Iterable[Root]) -> List[Root]:
    """``roots`` in the deterministic :func:`root_sort_key` order."""
    return sorted(roots, key=root_sort_key)


def is_identified(root: Root) -> bool:
    """Identified objects are provably distinct from one another."""
    if root is UNKNOWN:
        return False
    if isinstance(root, Argument):
        return False  # two different arguments may point to one object
    if isinstance(root, Constant):
        return True
    return isinstance(root, (GlobalVariable, Alloca, Call))


def may_alias_roots(a: FrozenSet[Root], b: FrozenSet[Root]) -> bool:
    """Can pointers with roots ``a`` and ``b`` touch the same memory?"""
    for root_a in a:
        for root_b in b:
            if root_a is root_b or root_a == root_b:
                return True
            if not is_identified(root_a) or not is_identified(root_b):
                return True
    return False


def may_alias(p: Value, q: Value) -> bool:
    """May the pointers ``p`` and ``q`` alias?"""
    return may_alias_roots(underlying_objects(p), underlying_objects(q))


def points_into(value: Value, root: Root,
                memo: Optional[Dict[Value, FrozenSet[Root]]] = None
                ) -> bool:
    """May ``value`` point into the allocation unit rooted at ``root``?
    ``memo`` as for :func:`underlying_objects`."""
    return may_alias_roots(underlying_objects(value, memo),
                           frozenset({root}))
