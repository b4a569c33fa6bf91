"""Launch expressions: the range ends of srcgen's launch-time proofs.

A grid variant's bounds may end in a *launch expression*: an int, or
``(constant, ((atom, coefficient), ...))``, a sum over atoms that are
Python expressions in ``grid`` and the launch arguments ``a1..aN``:
the names themselves, products of them, and the min, max and floor
quotients the algebra below cannot reduce.  Ints fold at codegen.
An atom is ``(text, low, high)``: its range over *ordinary launches*,
up to ``_ORDINARY`` threads with every argument within
``[-_ORDINARY, _ORDINARY]``, for which an int's launch condition
must hold (see ``_SourceCompiler._fits``).
"""

from __future__ import annotations

from typing import Dict, Tuple

_ORDINARY = 1 << 31
#: ``grid - 1``, the last thread id.
_LAST_TID = (-1, ((("grid", 1, _ORDINARY), 1),))


def _linear(end) -> Tuple[int, Dict[tuple, int]]:
    """``end`` as ``(constant, {atom: coefficient})``."""
    if isinstance(end, int):
        return end, {}
    return end[0], dict(end[1])


def _launch_expr(constant: int, terms: Dict[tuple, int]):
    terms = tuple(sorted((atom, k) for atom, k in terms.items() if k))
    return (constant, terms) if terms else constant


def _atom(text: str, low: int, high: int):
    return (0, (((text, low, high), 1),))


def _ordinary(end) -> Tuple[int, int]:
    """``end``'s range over ordinary launches."""
    if isinstance(end, int):
        return end, end
    low = high = end[0]
    for (_, a, b), k in end[1]:
        low, high = low + min(k * a, k * b), high + max(k * a, k * b)
    return low, high


def _plus(x, y):
    if isinstance(x, int) and isinstance(y, int):
        return x + y
    constant, terms = _linear(x)
    more, others = _linear(y)
    for atom, k in others.items():
        terms[atom] = terms.get(atom, 0) + k
    return _launch_expr(constant + more, terms)


def _times(x, y):
    if isinstance(x, int) and isinstance(y, int):
        return x * y
    c, terms = _linear(x)
    d, others = _linear(y)
    out = {atom: k * d for atom, k in terms.items()}
    for atom, k in others.items():
        out[atom] = out.get(atom, 0) + k * c
    for a, k in terms.items():
        for b, m in others.items():
            corners = [p * q for p in a[1:] for q in b[1:]]
            atom = (" * ".join(sorted((a[0], b[0]))), min(corners),
                    max(corners))
            out[atom] = out.get(atom, 0) + k * m
    return _launch_expr(c * d, out)


def _extreme(pick, ends):
    """``pick`` (``min`` or ``max``) of launch expressions: the
    constants of ends over the same atoms fold, the rest stay a call."""
    best: Dict[tuple, int] = {}
    for end in ends:
        constant, terms = _linear(end)
        key = tuple(sorted(terms.items()))
        best[key] = constant if key not in best \
            else pick(best[key], constant)
    folded = sorted((_launch_expr(constant, dict(key))
                     for key, constant in best.items()), key=_render)
    if len(folded) == 1:
        return folded[0]
    ranges = [_ordinary(end) for end in folded]
    return _atom(f"{pick.__name__}({', '.join(map(_render, folded))})",
                 pick(low for low, _ in ranges),
                 pick(high for _, high in ranges))


def _quotient(x, k: int):
    """``x // k`` for a positive constant ``k``."""
    if isinstance(x, int):
        return x // k
    low, high = _ordinary(x)
    return _atom(f"(({_render(x)}) // {k})", low // k, high // k)


def _render(end) -> str:
    """A launch expression as Python source."""
    if isinstance(end, int):
        return str(end)
    constant, terms = end
    text = ""
    for (atom, _, _), k in terms:
        part = atom if abs(k) == 1 else f"{atom} * {abs(k)}"
        if text:
            text += (" - " if k < 0 else " + ") + part
        else:
            text = ("-" if k < 0 else "") + part
    if constant:
        text += f" - {-constant}" if constant < 0 else f" + {constant}"
    return text


def _nonnegative(end) -> bool:
    return isinstance(end, int) and end >= 0


def _solved(end, op: str, limit: int) -> Tuple[str, str, int]:
    """Condition ``end op limit`` (``op`` is ``<=`` or ``>=``) as
    ``(lhs, op, bound)``: the constant moved to the bound and, when one
    atom is left, its coefficient divided out, so that conditions on
    one atom keep only the tightest bound."""
    constant, terms = end
    bound = limit - constant
    if len(terms) != 1:
        return _render((0, terms)), op, bound
    (atom, _, _), k = terms[0]
    if k < 0:
        k, bound, op = -k, -bound, "<=" if op == ">=" else ">="
    return atom, op, bound // k if op == "<=" else -(-bound // k)
