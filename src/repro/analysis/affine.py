"""Affine address analysis and the DOALL cross-iteration conflict test.

The simple DOALL parallelizer (paper section 6.1 uses "a simple
automatic DOALL parallelizer") must prove that two dynamic iterations
of a candidate loop never touch conflicting addresses.  We express
every memory access as an affine form over the candidate loop's
induction variable and the (constant-bounded) induction variables of
the loops nested inside it::

    address = sum(coeff_v * iv_v) + const + sum(symbols)

where symbols are loop-invariant but statically unknown values (array
base pointers and the like).  Two accesses conflict across iterations
``i != i'`` of the candidate loop iff zero lies in the reachable range
of their address difference -- an interval computation over the inner
induction ranges plus a divisibility check on the outer coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..ir.instructions import (Alloca, BinaryOp, Cast, GetElementPtr,
                               Instruction, Load, Select, Store)
from ..ir.types import ArrayType, StructType
from ..ir.values import Argument, Constant, GlobalVariable, Value
from .loops import CountedLoop


@dataclass(frozen=True)
class IvRange:
    """Half-open value range of an inner induction variable."""

    start: int
    stop: int
    step: int

    @property
    def min_value(self) -> int:
        return self.start

    @property
    def max_value(self) -> int:
        if self.stop <= self.start:
            return self.start
        span = (self.stop - 1 - self.start) // self.step
        return self.start + span * self.step


class AffineContext:
    """Everything needed to build affine forms inside one DOALL
    candidate loop:

    * ``outer_ivar``    -- the candidate's induction alloca; the two
      compared accesses use *different* values of it (delta != 0),
      optionally bounded by ``outer_range`` (the trip count),
    * ``inner_ranges``  -- induction allocas of loops nested inside the
      candidate; the two accesses' instances vary *independently*,
    * ``fixed_ranges``  -- induction allocas of loops *enclosing* the
      candidate: both accesses see the *same* (unknown, bounded) value,
      so equal coefficients cancel exactly (crucial for triangular
      updates like LU's ``A[i][j] -= colk[i] * rowk[j]``).
    """

    def __init__(self, counted: CountedLoop,
                 inner_ranges: Dict[Alloca, IvRange],
                 fixed_ranges: Optional[Dict[Alloca, IvRange]] = None,
                 outer_range: Optional[IvRange] = None):
        self.counted = counted
        self.outer_ivar = counted.ivar
        self.inner_ranges = inner_ranges
        self.fixed_ranges = fixed_ranges or {}
        self.outer_range = outer_range
        self.loop_blocks = counted.loop.blocks
        self._stable_slots: Dict[Alloca, str] = {}
        self._stable_globals: Dict[GlobalVariable, bool] = {}

    def is_invariant(self, value: Value) -> bool:
        if isinstance(value, (Constant, Argument, GlobalVariable)):
            return True
        if isinstance(value, Load) and isinstance(value.pointer, Alloca) \
                and value.pointer in self.fixed_ranges:
            return False  # modelled as a bounded fixed variable instead
        if isinstance(value, Instruction):
            return value.parent not in self.loop_blocks
        return False

    def stable_slot(self, load: Load) -> Optional[Alloca]:
        """The scalar spill slot this in-loop load reads, if the slot
        is never stored inside the loop (so every load yields the same
        value -- e.g. a function parameter like ``r`` in
        ``A[r][q][p]``).  Such loads become symbols keyed by the slot,
        letting equal terms cancel across compared accesses."""
        pointer = load.pointer
        if not isinstance(pointer, Alloca):
            return None
        if not pointer.allocated_type.is_scalar:
            return None
        cached = self._stable_slots.get(pointer)
        if cached is not None:
            return pointer if cached == "stable" else None
        fn = pointer.function
        verdict = "stable"
        if fn is None:
            verdict = "unstable"
        else:
            for inst in fn.instructions():
                if isinstance(inst, Store) and inst.pointer is pointer \
                        and inst.parent in self.loop_blocks:
                    verdict = "unstable"
                    break
                if not isinstance(inst, (Load, Store)) \
                        and pointer in inst.operands:
                    verdict = "unstable"  # address escapes
                    break
        self._stable_slots[pointer] = verdict
        return pointer if verdict == "stable" else None

    def stable_global_slot(self, load: Load) -> bool:
        """Is this a load of a direct-use global pointer slot with no
        stores inside the loop?  Then all in-loop loads agree and the
        global can key an affine symbol."""
        from .alias import _is_direct_global_slot, _module_of
        pointer = load.pointer
        if not isinstance(pointer, GlobalVariable):
            return False
        if not pointer.value_type.is_scalar:
            return False
        cached = self._stable_globals.get(pointer)
        if cached is not None:
            return cached
        module = _module_of(load)
        verdict = False
        if module is not None \
                and _is_direct_global_slot(pointer, module):
            verdict = True
            fn = load.parent.parent if load.parent is not None else None
            if fn is not None:
                for inst in fn.instructions():
                    if isinstance(inst, Store) \
                            and inst.pointer is pointer \
                            and inst.parent in self.loop_blocks:
                        verdict = False
                        break
        self._stable_globals[pointer] = verdict
        return verdict


@dataclass
class Affine:
    """An affine address form; ``unknown`` poisons everything."""

    coeffs: Dict[Alloca, int] = field(default_factory=dict)
    const: int = 0
    symbols: Dict[Value, int] = field(default_factory=dict)
    unknown: bool = False

    @staticmethod
    def poison() -> "Affine":
        return Affine(unknown=True)

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(const=value)

    @staticmethod
    def symbol(value: Value) -> "Affine":
        return Affine(symbols={value: 1})

    @staticmethod
    def induction(ivar: Alloca) -> "Affine":
        return Affine(coeffs={ivar: 1})

    def add(self, other: "Affine", sign: int = 1) -> "Affine":
        if self.unknown or other.unknown:
            return Affine.poison()
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + sign * coeff
        symbols = dict(self.symbols)
        for sym, mult in other.symbols.items():
            symbols[sym] = symbols.get(sym, 0) + sign * mult
        return Affine({v: c for v, c in coeffs.items() if c},
                      self.const + sign * other.const,
                      {s: m for s, m in symbols.items() if m})

    def scale(self, factor: int) -> "Affine":
        if self.unknown:
            return Affine.poison()
        if factor == 0:
            return Affine.constant(0)
        return Affine({v: c * factor for v, c in self.coeffs.items()},
                      self.const * factor,
                      {s: m * factor for s, m in self.symbols.items()})

    @property
    def is_constant_int(self) -> bool:
        return not (self.unknown or self.coeffs or self.symbols)


def affine_of(value: Value, ctx: AffineContext,
              _depth: int = 0) -> Affine:
    """Build the affine form of an integer/pointer value."""
    if _depth > 64:
        return Affine.poison()
    if isinstance(value, Constant):
        if isinstance(value.value, int):
            return Affine.constant(value.value)
        return Affine.poison()
    if ctx.is_invariant(value):
        return Affine.symbol(value)
    if isinstance(value, Load):
        pointer = value.pointer
        if isinstance(pointer, Alloca):
            if pointer is ctx.outer_ivar or pointer in ctx.inner_ranges \
                    or pointer in ctx.fixed_ranges:
                return Affine.induction(pointer)
            slot = ctx.stable_slot(value)
            if slot is not None:
                # Every in-loop load of this slot sees one value:
                # symbol keyed by the slot so equal terms cancel.
                return Affine.symbol(slot)
        if isinstance(pointer, GlobalVariable) \
                and ctx.stable_global_slot(value):
            return Affine.symbol(pointer)
        return Affine.poison()
    if isinstance(value, Cast):
        if value.kind in ("sext", "zext", "trunc", "bitcast", "inttoptr",
                          "ptrtoint"):
            return affine_of(value.value, ctx, _depth + 1)
        return Affine.poison()
    if isinstance(value, BinaryOp):
        lhs = affine_of(value.lhs, ctx, _depth + 1)
        rhs = affine_of(value.rhs, ctx, _depth + 1)
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
        return _affine_of_gep(value, ctx, _depth)
    if isinstance(value, Select):
        return Affine.poison()
    return Affine.poison()


def _affine_of_gep(gep: GetElementPtr, ctx: AffineContext,
                   depth: int) -> Affine:
    result = affine_of(gep.pointer, ctx, depth + 1)
    pointee = gep.pointer.type.pointee
    indices = gep.indices
    result = result.add(affine_of(indices[0], ctx,
                                  depth + 1).scale(pointee.size))
    current = pointee
    for index in indices[1:]:
        if isinstance(current, ArrayType):
            current = current.element
            result = result.add(affine_of(index, ctx,
                                          depth + 1).scale(current.size))
        elif isinstance(current, StructType):
            if not isinstance(index, Constant):
                return Affine.poison()
            result = result.add(
                Affine.constant(current.field_offset(index.value)))
            current = current.fields[index.value][1]
        else:
            return Affine.poison()
    return result


@dataclass
class AccessForm:
    """One memory access: its affine address and width in bytes."""

    affine: Affine
    width: int
    is_write: bool


def access_form(inst: Instruction, ctx: AffineContext) -> AccessForm:
    if isinstance(inst, Load):
        return AccessForm(affine_of(inst.pointer, ctx), inst.type.size,
                          False)
    if isinstance(inst, Store):
        return AccessForm(affine_of(inst.pointer, ctx),
                          inst.value.type.size, True)
    raise TypeError(f"not a memory access: {inst!r}")


def conflicts_across_iterations(f: AccessForm, g: AccessForm,
                                ctx: AffineContext) -> bool:
    """May ``f`` (at iteration i) and ``g`` (at iteration i' != i)
    touch overlapping bytes?  Conservative: True when unsure."""
    af, ag = f.affine, g.affine
    if af.unknown or ag.unknown:
        return True
    if af.symbols != ag.symbols:
        # Different unknown bases: if they are based on provably
        # different objects the caller already separated them, so any
        # mismatch here is "don't know".
        return True
    outer = ctx.outer_ivar
    coeff = af.coeffs.get(outer, 0)
    if coeff != ag.coeffs.get(outer, 0):
        return True  # outer strides differ: interval logic breaks down
    # Address difference at iterations (i, i'):
    #   D = coeff*(i - i') + R,   R in [lo, hi]
    # where R collects the constant offset, the independent spans of
    # both accesses' inner induction variables, and the shared spans of
    # enclosing (fixed) induction variables.
    lo = hi = af.const - ag.const
    for var in set(af.coeffs) | set(ag.coeffs):
        if var is outer:
            continue
        fixed = ctx.fixed_ranges.get(var)
        if fixed is not None:
            # Both accesses observe the same value: only the coefficient
            # *difference* matters, and it cancels when equal.
            diff = af.coeffs.get(var, 0) - ag.coeffs.get(var, 0)
            if diff:
                ends = (diff * fixed.min_value, diff * fixed.max_value)
                lo += min(ends)
                hi += max(ends)
            continue
        rng = ctx.inner_ranges.get(var)
        if rng is None:
            return True
        # f's inner iv and g's inner iv vary independently, so both
        # contribute their full span to the interval.
        for inner_coeff in (af.coeffs.get(var, 0), -ag.coeffs.get(var, 0)):
            if inner_coeff == 0:
                continue
            ends = (inner_coeff * rng.min_value,
                    inner_coeff * rng.max_value)
            lo += min(ends)
            hi += max(ends)
    # Divisibility structure: every variable term contributes a
    # multiple of its coefficient, so achievable R values live on the
    # lattice { base_const + lattice_gcd * k } intersected with
    # [lo, hi].
    import math
    lattice_gcd = 0
    base_const = af.const - ag.const
    for var in set(af.coeffs) | set(ag.coeffs):
        if var is outer:
            continue
        if var in ctx.fixed_ranges:
            term = abs(af.coeffs.get(var, 0) - ag.coeffs.get(var, 0))
            lattice_gcd = math.gcd(lattice_gcd, term)
        else:
            lattice_gcd = math.gcd(lattice_gcd,
                                   abs(af.coeffs.get(var, 0)))
            lattice_gcd = math.gcd(lattice_gcd,
                                   abs(ag.coeffs.get(var, 0)))

    # Byte ranges [A_f, A_f+w_f) and [A_g, A_g+w_g) overlap iff
    # D = coeff*delta + R lies in [-(w_g-1), w_f-1].  When the
    # candidate's trip count is known, |delta| is bounded by it.
    max_delta = None
    if ctx.outer_range is not None:
        trips = max(0, (ctx.outer_range.stop - ctx.outer_range.start
                        + ctx.outer_range.step - 1)
                    // ctx.outer_range.step)
        max_delta = max(1, trips - 1)
    win_lo = -(g.width - 1)
    win_hi = f.width - 1
    return _conflict_exists(coeff, win_lo, win_hi, lo, hi, base_const,
                            lattice_gcd, max_delta)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


_MAX_DELTA_ENUMERATION = 1 << 16


def _conflict_exists(coeff: int, win_lo: int, win_hi: int, lo: int,
                     hi: int, base: int, lattice: int,
                     max_delta: Optional[int]) -> bool:
    """Is there delta != 0 (|delta| <= max_delta) and an achievable
    R in [lo, hi] with R in base + lattice*Z, such that
    coeff*delta + R falls in [win_lo, win_hi]?  Conservative: True on
    enumeration blow-up."""
    if lo > hi:
        return False
    if coeff == 0:
        # delta is irrelevant; any two iterations may collide.
        return _lattice_hits(base, lattice, max(lo, win_lo),
                             min(hi, win_hi))
    # coeff*delta must land in [A, B] = [win_lo - hi, win_hi - lo].
    bound_a = win_lo - hi
    bound_b = win_hi - lo
    if coeff > 0:
        delta_lo = _ceil_div(bound_a, coeff)
        delta_hi = bound_b // coeff
    else:
        delta_lo = _ceil_div(bound_b, coeff)
        delta_hi = bound_a // coeff
    if max_delta is not None:
        delta_lo = max(delta_lo, -max_delta)
        delta_hi = min(delta_hi, max_delta)
    if delta_hi - delta_lo > _MAX_DELTA_ENUMERATION:
        return True  # give up conservatively
    for delta in range(delta_lo, delta_hi + 1):
        if delta == 0:
            continue
        shift = coeff * delta
        if _lattice_hits(base, lattice, max(lo, win_lo - shift),
                         min(hi, win_hi - shift)):
            return True
    return False


def _lattice_hits(base: int, lattice: int, lo: int, hi: int) -> bool:
    """Does { base + lattice*k } intersect [lo, hi]?"""
    if lo > hi:
        return False
    if lattice == 0:
        return lo <= base <= hi
    k_lo = _ceil_div(lo - base, lattice)
    return base + lattice * k_lo <= hi
