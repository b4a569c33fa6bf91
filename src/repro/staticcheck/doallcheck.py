"""DOALL race auditor: independent re-check of outlined kernels.

The parallelizer proves loops DOALL on the *host* IR before outlining
them; this pass re-derives affine access forms from each outlined
kernel's *own* IR -- the thread id is an argument now, the induction
variable a store in the kernel entry -- and re-runs the
cross-iteration conflict test (:mod:`analysis.affine`).  A disagreement
means either a parallelizer bug or a hand-written racy kernel.

Verdicts are deliberately asymmetric:

* ``doall-race`` (ERROR) only when the access pair is *fully
  analyzable* -- both affine forms derived without poison, symbolic
  bases identical, every non-thread coefficient backed by a known
  induction range -- and the conflict test still says two distinct
  thread ids may touch overlapping bytes (this includes write/write
  self-conflicts, i.e. reductions into a shared scalar).
* ``doall-unverified`` (NOTE) when the pass cannot analyze the pair.
  Notes never fail a lint run: the auditor is defense-in-depth, and an
  unanalyzable kernel is not evidence of a race.

Glue kernels (constant grid of one thread) and never-launched kernels
are skipped: a single thread cannot race with itself.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from ..analysis.affine import (AccessForm, Affine, IvRange,
                               conflicts_across_iterations)
from ..analysis.alias import may_alias_roots, underlying_objects
from ..analysis.dominators import DominatorTree
from ..analysis.loops import find_loops, recognize_counted_loop
from ..ir.function import Function
from ..ir.instructions import (Alloca, BinaryOp, Cast, Compare, GetElementPtr,
                               Instruction, LaunchKernel, Load, Select, Store)
from ..ir.module import Module
from ..ir.types import ArrayType, StructType
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .context import CheckContext
from .findings import Finding, Severity, finding_at

PASS_NAME = "doall"


class _Tid:
    """Sentinel affine variable standing for the kernel's thread id."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tid>"


class KernelAffine:
    """Affine evaluator over one kernel's IR.

    Mirrors :func:`analysis.affine.affine_of` but in the kernel's
    frame of reference: argument 0 is the thread id (variable
    :attr:`tid`), write-once entry slots forward to their stored
    value, inner counted-loop induction slots become affine variables
    with ranges when the loop bounds are statically known.
    """

    def __init__(self, kernel: Function, module: Module):
        self.kernel = kernel
        self.module = module
        self.tid = _Tid()
        self.inner_ranges: Dict[Alloca, Optional[IvRange]] = {}
        self._memo: Dict[Value, Affine] = {}
        self._slot_stores: Dict[Alloca, List[Store]] = {}
        self._global_stores: Dict[GlobalVariable, int] = {}
        self._domtree: Optional[DominatorTree] = None
        self._scan()

    # -- kernel structure ---------------------------------------------------

    def _scan(self) -> None:
        for inst in self.kernel.instructions():
            if isinstance(inst, Store):
                if isinstance(inst.pointer, Alloca):
                    self._slot_stores.setdefault(inst.pointer,
                                                 []).append(inst)
                elif isinstance(inst.pointer, GlobalVariable):
                    gv = inst.pointer
                    self._global_stores[gv] = \
                        self._global_stores.get(gv, 0) + 1
        for loop in find_loops(self.kernel):
            counted = recognize_counted_loop(self.kernel, loop)
            if counted is None:
                continue
            self.inner_ranges[counted.ivar] = self._loop_range(counted)

    def _loop_range(self, counted) -> Optional[IvRange]:
        start = self._constant_bound(counted.start, want_max=False)
        end = self._constant_bound(counted.end, want_max=True)
        if start is None or end is None:
            return None
        stop = end + 1 if counted.pred == "le" else end
        return IvRange(start, stop, counted.step)

    def _constant_bound(self, value: Value,
                        want_max: bool) -> Optional[int]:
        """An integer bound for a loop-invariant limit: a literal, or
        the extreme of the constants a global scalar slot can hold."""
        if isinstance(value, Constant) and isinstance(value.value, int):
            return int(value.value)
        if isinstance(value, Load) \
                and isinstance(value.pointer, GlobalVariable):
            return self._global_slot_bound(value.pointer, want_max)
        return None

    def _global_slot_bound(self, gv: GlobalVariable,
                           want_max: bool) -> Optional[int]:
        """Widen a global integer slot over its initializer and every
        constant store in the module; None if any store is opaque."""
        if not gv.value_type.is_scalar or not gv.value_type.is_integer:
            return None
        values: List[int] = []
        init = gv.initializer
        if init is None:
            values.append(0)
        elif isinstance(init, int):
            values.append(init)
        else:
            return None
        for fn in self.module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, Store) and inst.pointer is gv:
                    if isinstance(inst.value, Constant) \
                            and isinstance(inst.value.value, int):
                        values.append(int(inst.value.value))
                    else:
                        return None
        return max(values) if want_max else min(values)

    # -- evaluation ---------------------------------------------------------

    def affine_of(self, value: Value, _depth: int = 0) -> Affine:
        if _depth > 64:
            return Affine.poison()
        memo = self._memo.get(value)
        if memo is not None:
            return memo
        self._memo[value] = Affine.poison()  # cycle guard
        result = self._eval(value, _depth)
        self._memo[value] = result
        return result

    def _eval(self, value: Value, depth: int) -> Affine:
        if isinstance(value, Constant):
            if isinstance(value.value, int):
                return Affine.constant(value.value)
            return Affine.poison()
        if isinstance(value, Argument):
            if value.function is self.kernel and value.index == 0:
                return Affine(coeffs={self.tid: 1})
            return Affine.symbol(value)
        if isinstance(value, GlobalVariable):
            return Affine.symbol(value)
        if isinstance(value, Load):
            return self._eval_load(value, depth)
        if isinstance(value, Cast):
            if value.kind in ("sext", "zext", "trunc", "bitcast",
                              "inttoptr", "ptrtoint"):
                return self.affine_of(value.value, depth + 1)
            return Affine.poison()
        if isinstance(value, BinaryOp):
            lhs = self.affine_of(value.lhs, depth + 1)
            rhs = self.affine_of(value.rhs, depth + 1)
            if value.op == "add":
                return lhs.add(rhs)
            if value.op == "sub":
                return lhs.add(rhs, sign=-1)
            if value.op == "mul":
                if rhs.is_constant_int:
                    return lhs.scale(rhs.const)
                if lhs.is_constant_int:
                    return rhs.scale(lhs.const)
                return Affine.poison()
            if value.op == "shl" and rhs.is_constant_int:
                return lhs.scale(1 << rhs.const)
            return Affine.poison()
        if isinstance(value, GetElementPtr):
            return self._eval_gep(value, depth)
        return Affine.poison()

    def _eval_load(self, load: Load, depth: int) -> Affine:
        pointer = load.pointer
        if isinstance(pointer, Alloca):
            if pointer in self.inner_ranges:
                return Affine(coeffs={pointer: 1})
            stores = self._slot_stores.get(pointer, [])
            if len(stores) == 1 and self._store_reaches(stores[0], load):
                # Write-once slot (iv seed / spilled parameter): every
                # load sees the single stored value.
                return self.affine_of(stores[0].value, depth + 1)
            return Affine.poison()
        if isinstance(pointer, GlobalVariable) \
                and pointer.value_type.is_scalar \
                and self._global_stores.get(pointer, 0) == 0:
            # Direct global slot, never stored by this kernel: all
            # loads agree; key a symbol by the slot's *content*.
            return Affine.symbol(("deref", pointer))
        return Affine.poison()

    def _store_reaches(self, store: Store, load: Load) -> bool:
        """Does the slot's single store definitely execute before the
        load?  (Same block, earlier; or its block dominates the
        load's.)"""
        if store.parent is load.parent:
            block = store.parent
            return block.index(store) < block.index(load)
        if self._domtree is None:
            self._domtree = DominatorTree(self.kernel)
        return self._domtree.dominates(store.parent, load.parent)

    def _eval_gep(self, gep: GetElementPtr, depth: int) -> Affine:
        result = self.affine_of(gep.pointer, depth + 1)
        pointee = gep.pointer.type.pointee
        indices = gep.indices
        result = result.add(
            self.affine_of(indices[0], depth + 1).scale(pointee.size))
        current = pointee
        for index in indices[1:]:
            if isinstance(current, ArrayType):
                current = current.element
                result = result.add(
                    self.affine_of(index, depth + 1).scale(current.size))
            elif isinstance(current, StructType):
                if not isinstance(index, Constant):
                    return Affine.poison()
                result = result.add(
                    Affine.constant(current.field_offset(index.value)))
                current = current.fields[index.value][1]
            else:
                return Affine.poison()
        return result


def _fold_int(value: Value, _depth: int = 0) -> Optional[int]:
    """Constant-fold an integer value (the parallelizer computes trip
    counts as ``select(cmp((end-start+bias)/step, 0), ..., 0)`` chains
    over literals)."""
    if _depth > 32:
        return None
    if isinstance(value, Constant):
        return int(value.value) if isinstance(value.value, int) else None
    if isinstance(value, Cast):
        if value.kind in ("sext", "zext", "trunc"):
            return _fold_int(value.value, _depth + 1)
        return None
    if isinstance(value, BinaryOp):
        lhs = _fold_int(value.lhs, _depth + 1)
        rhs = _fold_int(value.rhs, _depth + 1)
        if lhs is None or rhs is None:
            return None
        if value.op == "add":
            return lhs + rhs
        if value.op == "sub":
            return lhs - rhs
        if value.op == "mul":
            return lhs * rhs
        if value.op == "div" and rhs != 0:
            return int(lhs / rhs)  # C-style truncation
        if value.op == "shl":
            return lhs << rhs
        return None
    if isinstance(value, Compare):
        lhs = _fold_int(value.lhs, _depth + 1)
        rhs = _fold_int(value.rhs, _depth + 1)
        if lhs is None or rhs is None:
            return None
        table = {"lt": lhs < rhs, "le": lhs <= rhs, "gt": lhs > rhs,
                 "ge": lhs >= rhs, "eq": lhs == rhs, "ne": lhs != rhs}
        verdict = table.get(value.pred)
        return None if verdict is None else int(verdict)
    if isinstance(value, Select):
        cond = _fold_int(value.condition, _depth + 1)
        if cond is not None:
            arm = value.if_true if cond else value.if_false
            return _fold_int(arm, _depth + 1)
        return None
    return None


def _kernel_grids(module: Module,
                  kernel: Function) -> Tuple[bool, Optional[int]]:
    """(ever launched with grid possibly > 1, max known grid or None
    when some launch's grid cannot be constant-folded)."""
    launched = False
    max_grid: Optional[int] = 0
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, LaunchKernel) and inst.kernel is kernel:
                grid = _fold_int(inst.grid)
                if grid is not None:
                    if grid <= 1:
                        continue  # single-thread glue launch
                    launched = True
                    if max_grid is not None:
                        max_grid = max(max_grid, grid)
                else:
                    launched = True
                    max_grid = None
    return launched, max_grid


def _shared_accesses(kernel: Function) -> List[Instruction]:
    """Loads/stores whose address may leave the kernel's private frame."""
    accesses: List[Instruction] = []
    for inst in kernel.instructions():
        if not isinstance(inst, (Load, Store)):
            continue
        shared = False
        for root in underlying_objects(inst.pointer):
            if isinstance(root, Alloca):
                block = root.parent
                owner = block.parent if block is not None else None
                if owner is kernel:
                    continue  # thread-private scratch
            if isinstance(root, Constant):
                continue
            shared = True
        if shared:
            accesses.append(inst)
    return accesses


def _analyzable(a: Affine, b: Affine, evaluator: KernelAffine) -> bool:
    if a.unknown or b.unknown:
        return False
    if a.symbols != b.symbols:
        return False
    for var in set(a.coeffs) | set(b.coeffs):
        if var is evaluator.tid:
            continue
        if evaluator.inner_ranges.get(var) is None:
            return False
    return True


def check_doall(module: Module, ctx: CheckContext) -> List[Finding]:
    findings: List[Finding] = []
    for kernel in module.kernels():
        launched, max_grid = _kernel_grids(module, kernel)
        if not launched:
            continue
        findings.extend(_audit_kernel(module, kernel, max_grid))
    return findings


def _audit_kernel(module: Module, kernel: Function,
                  max_grid: Optional[int]) -> List[Finding]:
    evaluator = KernelAffine(kernel, module)
    accesses = _shared_accesses(kernel)
    if not any(isinstance(a, Store) for a in accesses):
        return []  # read-only kernels cannot race

    inner_ranges = {var: rng for var, rng in evaluator.inner_ranges.items()
                    if rng is not None}
    outer_range = (IvRange(0, max_grid, 1)
                   if max_grid is not None and max_grid > 1 else None)
    affine_ctx = SimpleNamespace(outer_ivar=evaluator.tid,
                                 inner_ranges=inner_ranges,
                                 fixed_ranges={}, outer_range=outer_range)

    forms: Dict[Instruction, AccessForm] = {}
    roots: Dict[Instruction, frozenset] = {}
    for inst in accesses:
        if isinstance(inst, Load):
            forms[inst] = AccessForm(evaluator.affine_of(inst.pointer),
                                     inst.type.size, False)
        else:
            forms[inst] = AccessForm(evaluator.affine_of(inst.pointer),
                                     inst.value.type.size, True)
        roots[inst] = underlying_objects(inst.pointer)

    findings: List[Finding] = []
    unverified: List[Tuple[Instruction, Instruction]] = []
    for i, f_inst in enumerate(accesses):
        for g_inst in accesses[i:]:
            f, g = forms[f_inst], forms[g_inst]
            if not f.is_write and not g.is_write:
                continue
            if f_inst is g_inst and not f.is_write:
                continue
            if not may_alias_roots(roots[f_inst], roots[g_inst]):
                continue
            if not conflicts_across_iterations(f, g, affine_ctx):
                continue
            if _analyzable(f.affine, g.affine, evaluator):
                anchor = f_inst if f.is_write else g_inst
                other = g_inst if anchor is f_inst else f_inst
                if anchor is other:
                    detail = ("every thread writes the same address "
                              "(unsynchronized reduction)")
                else:
                    detail = ("conflicts with the "
                              f"{'store' if (g if anchor is f_inst else f).is_write else 'load'}"
                              f" at {other.parent.name}"
                              f"#{other.parent.index(other)}")
                findings.append(finding_at(
                    PASS_NAME, "doall-race", Severity.ERROR, anchor,
                    f"kernel @{kernel.name}: two distinct thread ids may "
                    f"touch overlapping bytes: this store {detail}"))
            else:
                unverified.append((f_inst, g_inst))
    if unverified:
        f_inst, g_inst = unverified[0]
        findings.append(finding_at(
            PASS_NAME, "doall-unverified", Severity.NOTE, f_inst,
            f"kernel @{kernel.name}: {len(unverified)} access pair"
            f"{'s' if len(unverified) != 1 else ''} could not be proven "
            "race-free (non-affine addressing or unknown loop bounds)"))
    return findings
