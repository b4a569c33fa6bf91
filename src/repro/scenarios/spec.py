"""Scenario specifications: structured MiniC programs with exact oracles.

A :class:`ScenarioSpec` is a small tree of *phases* over a set of
global double arrays and scalars.  Every phase knows two things:

* how to **emit** itself as MiniC (:meth:`~Phase.emit`), and
* how to **apply** itself to a pure-Python model of the program state
  (:meth:`~Phase.apply`) -- mirroring the C evaluation order and
  associativity *operation for operation*, so the modelled doubles are
  bit-identical to what the simulated machine computes.

That second half is the CPU-reference oracle: :func:`evaluate_spec`
predicts the program's exact stdout without touching the frontend,
the IR, or the interpreter.  Any disagreement between the oracle and
a real run is a bug in the stack (or, symmetrically, in the oracle --
either way, a finding).

Numeric discipline that makes bit-exactness possible:

* all float coefficients come from :data:`FLOAT_PALETTE` -- exact
  binary fractions, so literal parsing cannot round;
* integer subexpressions keep non-negative operands, where C's
  truncated ``%`` and Python's floored ``%`` agree;
* every emitted C expression is mirrored with the same shape in
  Python, preserving IEEE-754 evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FLOAT_PALETTE", "ArrayDecl", "ScalarDecl", "Phase", "InitPhase",
    "ElementwisePhase", "StencilPhase", "SeqAccumPhase", "AliasPhase",
    "PtrArrayPhase", "ScalarUpdatePhase", "RepeatPhase", "ChecksumItem",
    "RecursionItem", "ScenarioSpec", "emit_minic", "evaluate_spec",
]

#: Exact binary fractions: parsing their decimal spelling is lossless.
FLOAT_PALETTE = (0.125, 0.25, 0.375, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def _flit(value: float) -> str:
    """A MiniC double literal that parses back to exactly ``value``."""
    text = repr(float(value))
    return text if "." in text or "e" in text else text + ".0"


class _Writer:
    """Tiny indented source emitter."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        self.lines.append("    " * self.depth + text if text else "")

    def open(self, text: str) -> None:
        self.line(text + " {")
        self.depth += 1

    def close(self) -> None:
        self.depth -= 1
        self.line("}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass(frozen=True)
class ArrayDecl:
    """One global ``double`` array, optionally brace-initialized.

    ``init`` may be shorter than ``size``: C zero-fills the tail.  The
    emitted initializer keeps a trailing comma -- valid C99 the parser
    once rejected -- so the fuzzer pins that fix forever.
    """

    name: str
    size: int
    init: Tuple[float, ...] = ()


@dataclass(frozen=True)
class ScalarDecl:
    """One global ``double`` scalar, assigned at the top of ``main``."""

    name: str
    init: float


class Phase:
    """Base class: one statement group in ``main`` (or a repeat body)."""

    uid: int

    def emit(self, w: _Writer) -> None:
        raise NotImplementedError

    def apply(self, state: Dict[str, object]) -> None:
        raise NotImplementedError

    def arrays(self) -> Tuple[str, ...]:
        """Names of every array this phase touches."""
        raise NotImplementedError

    def scalars(self) -> Tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class InitPhase(Phase):
    """Affine (re)initialization: ``D[i] = (i*mul + add) % mod * scale``."""

    uid: int
    dst: str
    n: int
    mul: int
    add: int
    mod: int
    scale: float

    def emit(self, w: _Writer) -> None:
        w.line(f"for (int i = 0; i < {self.n}; i++)")
        w.line(f"    {self.dst}[i] = (i * {self.mul} + {self.add}) "
               f"% {self.mod} * {_flit(self.scale)};")

    def apply(self, state: Dict[str, object]) -> None:
        dst = state[self.dst]
        for i in range(self.n):
            dst[i] = ((i * self.mul + self.add) % self.mod) * self.scale

    def arrays(self) -> Tuple[str, ...]:
        return (self.dst,)


@dataclass(frozen=True)
class ElementwisePhase(Phase):
    """DOALL-friendly map: ``D[i] = D[i]*c1 + S1[i]*c2 [+ S2[i]*c3] [+ S]``."""

    uid: int
    dst: str
    src1: str
    n: int
    c1: float
    c2: float
    src2: Optional[str] = None
    c3: float = 0.5
    coeff_scalar: Optional[str] = None

    def emit(self, w: _Writer) -> None:
        expr = (f"{self.dst}[i] * {_flit(self.c1)} + "
                f"{self.src1}[i] * {_flit(self.c2)}")
        if self.src2 is not None:
            expr += f" + {self.src2}[i] * {_flit(self.c3)}"
        if self.coeff_scalar is not None:
            expr += f" + {self.coeff_scalar}"
        w.line(f"for (int i = 0; i < {self.n}; i++)")
        w.line(f"    {self.dst}[i] = {expr};")

    def apply(self, state: Dict[str, object]) -> None:
        dst, src1 = state[self.dst], state[self.src1]
        src2 = state[self.src2] if self.src2 is not None else None
        for i in range(self.n):
            value = dst[i] * self.c1 + src1[i] * self.c2
            if src2 is not None:
                value = value + src2[i] * self.c3
            if self.coeff_scalar is not None:
                value = value + state[self.coeff_scalar]
            dst[i] = value

    def arrays(self) -> Tuple[str, ...]:
        names = [self.dst, self.src1]
        if self.src2 is not None:
            names.append(self.src2)
        return tuple(names)

    def scalars(self) -> Tuple[str, ...]:
        return (self.coeff_scalar,) if self.coeff_scalar else ()


@dataclass(frozen=True)
class StencilPhase(Phase):
    """Nested reduction per element (inner loop inside each GPU thread)."""

    uid: int
    dst: str
    src: str
    n: int
    m: int
    coeff: float
    c1: float
    w2: float

    def emit(self, w: _Writer) -> None:
        acc = f"acc_{self.uid}"
        w.open(f"for (int i = 0; i < {self.n}; i++)")
        w.line(f"double {acc} = 0.0;")
        w.line(f"for (int j = 0; j < {self.m}; j++)")
        w.line(f"    {acc} += {self.src}[j] * {_flit(self.coeff)};")
        w.line(f"{self.dst}[i] = {self.dst}[i] * {_flit(self.c1)} + "
               f"{acc} + i * {_flit(self.w2)};")
        w.close()

    def apply(self, state: Dict[str, object]) -> None:
        dst, src = state[self.dst], state[self.src]
        for i in range(self.n):
            acc = 0.0
            for j in range(self.m):
                acc = acc + src[j] * self.coeff
            dst[i] = dst[i] * self.c1 + acc + i * self.w2

    def arrays(self) -> Tuple[str, ...]:
        return (self.dst, self.src)


@dataclass(frozen=True)
class SeqAccumPhase(Phase):
    """Prefix accumulation: the cross-iteration dependence keeps this
    loop on the CPU, giving the program a genuine CPU phase."""

    uid: int
    src: str
    dst: str
    n: int
    c: float

    def emit(self, w: _Writer) -> None:
        run = f"run_{self.uid}"
        w.line(f"double {run} = 0.0;")
        w.open(f"for (int i = 0; i < {self.n}; i++)")
        w.line(f"{run} += {self.src}[i];")
        w.line(f"{self.dst}[i] = {self.dst}[i] * {_flit(self.c)} + {run};")
        w.close()

    def apply(self, state: Dict[str, object]) -> None:
        src, dst = state[self.src], state[self.dst]
        run = 0.0
        for i in range(self.n):
            run = run + src[i]
            dst[i] = dst[i] * self.c + run

    def arrays(self) -> Tuple[str, ...]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class AliasPhase(Phase):
    """Writes through a local pointer into the middle of a global."""

    uid: int
    arr: str
    off: int
    length: int
    c: float
    add: float

    def emit(self, w: _Writer) -> None:
        p = f"p_{self.uid}"
        w.line(f"double *{p} = {self.arr} + {self.off};")
        w.line(f"for (int i = 0; i < {self.length}; i++)")
        w.line(f"    {p}[i] = {p}[i] * {_flit(self.c)} + "
               f"{_flit(self.add)};")

    def apply(self, state: Dict[str, object]) -> None:
        arr = state[self.arr]
        for i in range(self.length):
            arr[self.off + i] = arr[self.off + i] * self.c + self.add

    def arrays(self) -> Tuple[str, ...]:
        return (self.arr,)


@dataclass(frozen=True)
class PtrArrayPhase(Phase):
    """Fills the global pointer array, then updates through it.

    ``targets`` is a tuple of ``(array, offset)`` pairs; overlapping
    targets are legal and exercised (the oracle applies them in the
    same ``k``-loop order the program runs them in).
    """

    uid: int
    targets: Tuple[Tuple[str, int], ...]
    length: int
    c: float

    def emit(self, w: _Writer) -> None:
        for k, (arr, off) in enumerate(self.targets):
            rhs = arr if off == 0 else f"{arr} + {off}"
            w.line(f"PTRS[{k}] = {rhs};")
        q = f"q_{self.uid}"
        w.open(f"for (int k = 0; k < {len(self.targets)}; k++)")
        w.line(f"double *{q} = PTRS[k];")
        w.line(f"for (int i = 0; i < {self.length}; i++)")
        w.line(f"    {q}[i] = {q}[i] * {_flit(self.c)};")
        w.close()

    def apply(self, state: Dict[str, object]) -> None:
        for arr, off in self.targets:
            values = state[arr]
            for i in range(self.length):
                values[off + i] = values[off + i] * self.c

    def arrays(self) -> Tuple[str, ...]:
        return tuple(arr for arr, _ in self.targets)


@dataclass(frozen=True)
class ScalarUpdatePhase(Phase):
    """Glue candidate: a scalar global updated between array phases."""

    uid: int
    name: str
    mul: float
    add: float

    def emit(self, w: _Writer) -> None:
        w.line(f"{self.name} = {self.name} * {_flit(self.mul)} + "
               f"{_flit(self.add)};")

    def apply(self, state: Dict[str, object]) -> None:
        state[self.name] = state[self.name] * self.mul + self.add

    def arrays(self) -> Tuple[str, ...]:
        return ()

    def scalars(self) -> Tuple[str, ...]:
        return (self.name,)


@dataclass(frozen=True)
class RepeatPhase(Phase):
    """A counted outer loop over a body of phases (map-promotion and
    glue-kernel territory: the same units cross the bus every rep)."""

    uid: int
    reps: int
    body: Tuple[Phase, ...]

    def emit(self, w: _Writer) -> None:
        w.open(f"for (int rep = 0; rep < {self.reps}; rep++)")
        for phase in self.body:
            phase.emit(w)
        w.close()

    def apply(self, state: Dict[str, object]) -> None:
        for _ in range(self.reps):
            for phase in self.body:
                phase.apply(state)

    def arrays(self) -> Tuple[str, ...]:
        names: List[str] = []
        for phase in self.body:
            names.extend(phase.arrays())
        return tuple(names)

    def scalars(self) -> Tuple[str, ...]:
        names: List[str] = []
        for phase in self.body:
            names.extend(phase.scalars())
        return tuple(names)


@dataclass(frozen=True)
class ChecksumItem:
    """One printed checksum: ``cs += A[i] * (i % m + 1)`` over all i."""

    arr: str
    n: int
    m: int


@dataclass(frozen=True)
class RecursionItem:
    """One printed recursive suffix sum ``rsum_A(hi)``."""

    arr: str
    hi: int


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete generated program."""

    arrays: Tuple[ArrayDecl, ...]
    scalars: Tuple[ScalarDecl, ...]
    phases: Tuple[Phase, ...]
    checksums: Tuple[ChecksumItem, ...]
    recursions: Tuple[RecursionItem, ...] = ()
    ptr_slots: int = 0

    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(name)


# -- MiniC emission --------------------------------------------------------

def emit_minic(spec: ScenarioSpec, comment: str = "") -> str:
    """Render a spec as a complete MiniC program."""
    w = _Writer()
    if comment:
        w.line(f"/* {comment} */")
    for decl in spec.arrays:
        if decl.init:
            values = " ".join(f"{_flit(v)}," for v in decl.init)
            w.line(f"double {decl.name}[{decl.size}] = {{{values}}};")
        else:
            w.line(f"double {decl.name}[{decl.size}];")
    for decl in spec.scalars:
        w.line(f"double {decl.name};")
    if spec.ptr_slots:
        w.line(f"double *PTRS[{spec.ptr_slots}];")
    w.line()
    for item in spec.recursions:
        fn = f"rsum_{item.arr}"
        w.open(f"double {fn}(long i)")
        w.line("if (i < 0) return 0.0;")
        w.line(f"return {item.arr}[i] + {fn}(i - 1);")
        w.close()
        w.line()
    w.open("int main(void)")
    for decl in spec.scalars:
        w.line(f"{decl.name} = {_flit(decl.init)};")
    for phase in spec.phases:
        phase.emit(w)
    for index, item in enumerate(spec.checksums):
        cs = f"cs_{index}"
        w.line(f"double {cs} = 0.0;")
        w.line(f"for (int i = 0; i < {item.n}; i++)")
        w.line(f"    {cs} += {item.arr}[i] * (i % {item.m} + 1);")
        w.line(f"print_f64({cs});")
    for item in spec.recursions:
        w.line(f"print_f64(rsum_{item.arr}({item.hi}));")
    w.line("return 0;")
    w.close()
    return w.render()


# -- the CPU-reference oracle ----------------------------------------------

def evaluate_spec(spec: ScenarioSpec) -> Tuple[str, ...]:
    """Predict the program's exact stdout, without compiling anything.

    Globals start zeroed (C semantics, honoured by the simulator);
    every phase mirrors the emitted C operation for operation, so the
    doubles -- and therefore their ``%.6g`` renderings -- are
    bit-identical to a correct run.
    """
    state: Dict[str, object] = {}
    for decl in spec.arrays:
        values = [float(v) for v in decl.init]
        state[decl.name] = values + [0.0] * (decl.size - len(values))
    for decl in spec.scalars:
        state[decl.name] = float(decl.init)
    for phase in spec.phases:
        phase.apply(state)
    out: List[str] = []
    for item in spec.checksums:
        cs = 0.0
        values = state[item.arr]
        for i in range(item.n):
            cs = cs + values[i] * ((i % item.m) + 1)
        out.append(f"{cs:.6g}")
    for item in spec.recursions:
        values = state[item.arr]
        total = 0.0
        for i in range(item.hi + 1):
            total = values[i] + total
        out.append(f"{total:.6g}")
    return tuple(out)
