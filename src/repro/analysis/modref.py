"""Mod/ref analysis: does CPU code in a region touch an allocation unit?

Map promotion needs to prove that between hoisted ``map`` and ``unmap``
calls no *CPU* instruction reads or writes the allocation unit (GPU
accesses through kernel launches are exactly what the mapping is for,
so launches are ignored; run-time library calls manage the unit
coherently and are likewise excluded -- paper Algorithm 4).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Call, Instruction, LaunchKernel, Load, Store
from ..ir.values import Argument, Value
from ..runtime.api import RUNTIME_FUNCTION_NAMES
from .alias import (Root, UNKNOWN, may_alias_roots, points_into,
                    underlying_objects)

#: Externals that never touch user memory.
_PURE_EXTERNALS = frozenset({
    "sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "tan", "floor",
    "ceil", "fmax", "fmin", "abs_i64", "exp2", "atan", "srand", "rand_f64",
    "rand_i64", "print_i64", "print_f64", "exit", "malloc", "calloc",
})
#: Externals that read/write memory reachable from their arguments.
_MEMORY_EXTERNALS = frozenset({"memcpy", "memset", "print_str", "free",
                               "realloc"})


class ModRefAnalysis:
    """Answers "does this region mod or ref this object?" queries.

    ``roots`` is the :func:`underlying_objects` memo of a caller whose
    IR edits cannot change any value's roots; without one, every query
    walks the pointer afresh."""

    def __init__(self,
                 roots: Optional[Dict[Value, FrozenSet[Root]]] = None):
        self._roots = roots
        self._function_cache: Dict[Tuple[Function, Root], Tuple[bool, bool]] = {}
        self._in_progress: Set[Tuple[Function, Root]] = set()
        self._arg_cache: Dict[Function, Tuple[bool, bool]] = {}
        self._arg_in_progress: Set[Function] = set()

    # -- region queries ------------------------------------------------------

    def region_mod_ref(self, blocks: Iterable[BasicBlock], root: Root,
                       exclude: Optional[Set[Instruction]] = None
                       ) -> Tuple[bool, bool]:
        """(mod, ref) of CPU code in ``blocks`` w.r.t. ``root``."""
        exclude = exclude or set()
        mod = ref = False
        for block in blocks:
            for inst in block.instructions:
                if inst in exclude:
                    continue
                inst_mod, inst_ref = self._instruction_mod_ref(inst, root)
                mod = mod or inst_mod
                ref = ref or inst_ref
                if mod and ref:
                    return True, True
        return mod, ref

    def call_mod_ref(self, inst: Call, root: Root) -> Tuple[bool, bool]:
        """(mod, ref) of one call site w.r.t. ``root`` -- public entry
        point for clients (e.g. the static checker) that reason about
        individual calls rather than regions."""
        return self._call_mod_ref(inst, root)

    def instruction_mod_ref(self, inst: Instruction,
                            root: Root) -> Tuple[bool, bool]:
        """(mod, ref) of a single instruction w.r.t. ``root``."""
        return self._instruction_mod_ref(inst, root)

    def _instruction_mod_ref(self, inst: Instruction,
                             root: Root) -> Tuple[bool, bool]:
        if isinstance(inst, Load):
            return False, points_into(inst.pointer, root, self._roots)
        if isinstance(inst, Store):
            return points_into(inst.pointer, root, self._roots), False
        if isinstance(inst, LaunchKernel):
            return False, False  # GPU-side access: not CPU mod/ref
        if isinstance(inst, Call):
            return self._call_mod_ref(inst, root)
        return False, False

    def _call_mod_ref(self, inst: Call, root: Root) -> Tuple[bool, bool]:
        name = inst.callee.name
        if name in RUNTIME_FUNCTION_NAMES:
            return False, False  # managed coherently by the run-time
        if inst.callee.is_declaration:
            if name in _PURE_EXTERNALS:
                return False, False
            if name in _MEMORY_EXTERNALS:
                touches = any(points_into(arg, root, self._roots)
                              for arg in inst.args if arg.type.is_pointer)
                return touches, touches
            return True, True  # unknown external: be conservative
        # Defined callee: does its body touch the object (transitively)?
        body_mod, body_ref = self._function_mod_ref(inst.callee, root)
        # Accesses through the callee's own arguments count only if one
        # of the actuals can point into the object.
        arg_mod, arg_ref = self._function_arg_mod_ref(inst.callee)
        passes_object = any(points_into(arg, root, self._roots)
                            for arg in inst.args if arg.type.is_pointer)
        if passes_object:
            body_mod = body_mod or arg_mod
            body_ref = body_ref or arg_ref
        return body_mod, body_ref

    # -- whole-function summaries ------------------------------------------------

    def _function_mod_ref(self, fn: Function,
                          root: Root) -> Tuple[bool, bool]:
        """Does ``fn`` (transitively) access ``root`` *not* through its
        own arguments?"""
        key = (fn, root)
        cached = self._function_cache.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return True, True  # recursion: conservative
        self._in_progress.add(key)
        mod = ref = False
        for inst in fn.instructions():
            if isinstance(inst, Load):
                if self._non_argument_access(inst.pointer, root):
                    ref = True
            elif isinstance(inst, Store):
                if self._non_argument_access(inst.pointer, root):
                    mod = True
            elif isinstance(inst, Call):
                call_mod, call_ref = self._call_mod_ref(inst, root)
                mod = mod or call_mod
                ref = ref or call_ref
            if mod and ref:
                break
        self._in_progress.discard(key)
        self._function_cache[key] = (mod, ref)
        return mod, ref

    def _non_argument_access(self, pointer: Value, root: Root) -> bool:
        roots = underlying_objects(pointer, self._roots)
        non_arg_roots = frozenset(r for r in roots
                                  if not isinstance(r, Argument))
        if not non_arg_roots:
            return False
        return may_alias_roots(non_arg_roots, frozenset({root}))

    def _function_arg_mod_ref(self, fn: Function) -> Tuple[bool, bool]:
        """Does ``fn`` load/store through its pointer arguments?"""
        cached = self._arg_cache.get(fn)
        if cached is not None:
            return cached
        if fn in self._arg_in_progress:
            return True, True  # recursion: conservative
        self._arg_in_progress.add(fn)
        mod = ref = False
        for inst in fn.instructions():
            if isinstance(inst, Load):
                if self._based_on_argument(inst.pointer):
                    ref = True
            elif isinstance(inst, Store):
                if self._based_on_argument(inst.pointer):
                    mod = True
            elif isinstance(inst, Call) and not inst.callee.is_declaration:
                # Argument-reachable memory may be forwarded.
                callee_mod, callee_ref = self._function_arg_mod_ref(
                    inst.callee)
                mod = mod or callee_mod
                ref = ref or callee_ref
            if mod and ref:
                break
        self._arg_in_progress.discard(fn)
        self._arg_cache[fn] = (mod, ref)
        return mod, ref

    def _based_on_argument(self, pointer: Value) -> bool:
        roots = underlying_objects(pointer, self._roots)
        return any(isinstance(r, Argument) or r is UNKNOWN for r in roots)
