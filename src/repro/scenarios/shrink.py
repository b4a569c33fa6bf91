"""Greedy deterministic spec shrinking for fuzz counterexamples.

Hypothesis shrinks the property tests' failures on its own; this
module is for the *production* fuzz loop (``python -m repro fuzz``),
which runs on plain seeded randomness.  Given a failing spec and a
predicate "does this spec still fail?", :func:`minimize_spec` walks a
fixed repertoire of structure-removing moves to a fixpoint:

1. delete a top-level phase;
2. inline a repeat loop's body (drop the loop) or halve its trip count;
3. delete one phase from a repeat body;
4. drop recursion checksums, then per-array checksums (keeping one);
5. drop scalar and array declarations nothing references any more.

Moves are tried first-to-last, restarting after every success, so the
result is deterministic for a deterministic predicate.  The predicate
budget is capped; the best spec so far is returned when it runs out.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Tuple

from .spec import Phase, RepeatPhase, ScenarioSpec

__all__ = ["minimize_spec", "spec_size"]


def spec_size(spec: ScenarioSpec) -> int:
    """A rough structural size: smaller is more minimal."""

    def phase_size(phase: Phase) -> int:
        if isinstance(phase, RepeatPhase):
            return 1 + sum(phase_size(p) for p in phase.body)
        return 1

    return (sum(phase_size(p) for p in spec.phases)
            + len(spec.arrays) + len(spec.scalars)
            + len(spec.checksums) + len(spec.recursions))


def _referenced(spec: ScenarioSpec) -> Tuple[set, set]:
    arrays, scalars = set(), set()
    for phase in spec.phases:
        arrays.update(phase.arrays())
        scalars.update(phase.scalars())
    for item in spec.checksums:
        arrays.add(item.arr)
    for item in spec.recursions:
        arrays.add(item.arr)
    return arrays, scalars


def _candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Every one-step reduction of ``spec``, in a fixed order."""
    out: List[ScenarioSpec] = []

    # 1/2/3: phase-level moves.
    for index, phase in enumerate(spec.phases):
        rest = spec.phases[:index] + spec.phases[index + 1:]
        out.append(dataclasses.replace(spec, phases=rest))
        if isinstance(phase, RepeatPhase):
            inlined = spec.phases[:index] + phase.body \
                + spec.phases[index + 1:]
            out.append(dataclasses.replace(spec, phases=inlined))
            if phase.reps > 2:
                shrunk = dataclasses.replace(phase,
                                             reps=max(2, phase.reps // 2))
                out.append(dataclasses.replace(
                    spec, phases=spec.phases[:index] + (shrunk,)
                    + spec.phases[index + 1:]))
            for bindex in range(len(phase.body)):
                body = phase.body[:bindex] + phase.body[bindex + 1:]
                if body:
                    out.append(dataclasses.replace(
                        spec, phases=spec.phases[:index]
                        + (dataclasses.replace(phase, body=body),)
                        + spec.phases[index + 1:]))

    # 4: checksum/recursion moves (keep at least one print).
    for index in range(len(spec.recursions)):
        out.append(dataclasses.replace(
            spec, recursions=spec.recursions[:index]
            + spec.recursions[index + 1:]))
    if len(spec.checksums) + len(spec.recursions) > 1:
        for index in range(len(spec.checksums)):
            out.append(dataclasses.replace(
                spec, checksums=spec.checksums[:index]
                + spec.checksums[index + 1:]))

    # 5: drop unreferenced declarations.
    used_arrays, used_scalars = _referenced(spec)
    dead_arrays = tuple(a for a in spec.arrays if a.name not in used_arrays)
    dead_scalars = tuple(s for s in spec.scalars
                         if s.name not in used_scalars)
    if dead_arrays or dead_scalars:
        out.append(dataclasses.replace(
            spec,
            arrays=tuple(a for a in spec.arrays if a.name in used_arrays),
            scalars=tuple(s for s in spec.scalars
                          if s.name in used_scalars)))
    return out


def _valid(spec: ScenarioSpec) -> bool:
    """Reductions must leave a well-formed, printable program."""
    if not spec.arrays:
        return False
    if not spec.checksums and not spec.recursions:
        return False
    declared_arrays = {a.name for a in spec.arrays}
    declared_scalars = {s.name for s in spec.scalars}
    used_arrays, used_scalars = _referenced(spec)
    return (used_arrays <= declared_arrays
            and used_scalars <= declared_scalars)


def minimize_spec(spec: ScenarioSpec,
                  still_failing: Callable[[ScenarioSpec], bool],
                  budget: int = 200) -> ScenarioSpec:
    """Greedily shrink ``spec`` while ``still_failing`` holds."""
    current = spec
    evaluations = 0
    improved = True
    while improved and evaluations < budget:
        improved = False
        for candidate in _candidates(current):
            if evaluations >= budget:
                break
            if not _valid(candidate):
                continue
            if spec_size(candidate) >= spec_size(current):
                continue
            evaluations += 1
            if still_failing(candidate):
                current = candidate
                improved = True
                break
    return current
