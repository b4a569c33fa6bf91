"""Differential property matrix over generated (or any) MiniC programs.

For one program, :func:`check_program` asserts every correctness
property the stack claims, using :func:`repro.api.compile_workload`
for every compilation (so fuzz runs also soak the artifact cache):

========== ==========================================================
property   claim
========== ==========================================================
oracle     sequential run reproduces the pure-Python CPU reference
           stdout exactly, and exits 0
levels     sequential == unoptimized == optimized observables,
           byte for byte
engines    tree-walker == source engine: observables *and*
           modelled clocks (cpu/gpu/comm/critical-path/instructions)
           identical
streams    streams-on == streams-off observables, and the streams
           run's tree-walker and source engines agree on observables
           and clocks (the source engine's guarded host code)
sanitizer  CPU-vs-GPU differential run is byte-identical and the
           communication sanitizer reports zero violations
static     the static checkers report zero errors on the
           post-pipeline IR
faults     a seeded chaos schedule (and, slow mode, memory-pressure
           and tiny-heap schedules) leaves observables byte-identical
========== ==========================================================

``slow=False`` keeps one configuration per property (the tier-1 CI
budget); ``slow=True`` widens each property across levels/schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..api import compile_workload
from ..core.config import CgcmConfig, OptLevel
from ..errors import ReproError
from ..gpu.faults import fault_schedules, workload_seed
from ..interp.machine import hot_ratio
from ..staticcheck.findings import Severity
from .generator import GeneratedProgram, generate_program, materialize
from .shrink import minimize_spec
from .spec import ScenarioSpec

__all__ = ["PropertyOutcome", "ScenarioVerdict", "FuzzReport",
           "check_program", "check_source", "run_fuzz"]

PROPERTIES = ("oracle", "levels", "engines", "streams", "sanitizer",
              "static", "faults", "transval")


@dataclass
class PropertyOutcome:
    """One property's verdict on one program."""

    prop: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        return f"{self.prop}: {'ok' if self.ok else 'FAIL ' + self.detail}"


@dataclass
class ScenarioVerdict:
    """The whole matrix for one program."""

    name: str
    outcomes: List[PropertyOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failed(self) -> Tuple[str, ...]:
        return tuple(o.prop for o in self.outcomes if not o.ok)

    def summary(self) -> str:
        if self.ok:
            return f"{self.name}: ok ({len(self.outcomes)} properties)"
        details = "; ".join(o.render() for o in self.outcomes if not o.ok)
        return f"{self.name}: FAIL [{details}]"


def _clocks(result) -> Tuple:
    return (result.cpu_seconds, result.gpu_seconds, result.comm_seconds,
            result.critical_path_seconds, result.instructions)


def _diff(kind: str, left, right) -> str:
    return f"{kind}: {left!r} != {right!r}"


def check_source(source: str, name: str = "scenario",
                 expected_stdout: Optional[Sequence[str]] = None,
                 slow: bool = False,
                 fault_seed: Optional[int] = None,
                 validate: bool = False) -> ScenarioVerdict:
    """Run the full property matrix over one MiniC program.

    ``validate`` adds the ``transval`` property: the pipeline (with
    streams, the configuration exercising every pass) must satisfy
    every per-pass legality contract on the program."""
    verdict = ScenarioVerdict(name)
    out = verdict.outcomes
    if fault_seed is None:
        fault_seed = workload_seed(name)

    def attempt(prop: str, check: Callable[[], Optional[str]]) -> None:
        try:
            detail = check()
        except ReproError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        out.append(PropertyOutcome(prop, detail is None, detail or ""))

    # The baseline every equivalence below compares against.
    try:
        optimized = compile_workload(source, CgcmConfig(), name)
        base = optimized.run()
    except ReproError as exc:
        out.append(PropertyOutcome(
            "compile", False, f"{type(exc).__name__}: {exc}"))
        return verdict

    def check_oracle() -> Optional[str]:
        sequential = compile_workload(
            source, CgcmConfig(opt_level=OptLevel.SEQUENTIAL), name)
        result = sequential.run()
        if result.exit_code != 0:
            return f"sequential exit code {result.exit_code}"
        if expected_stdout is not None \
                and tuple(result.stdout) != tuple(expected_stdout):
            return _diff("stdout vs CPU reference", result.stdout,
                         tuple(expected_stdout))
        if result.observable() != base.observable():
            return _diff("sequential vs optimized observables",
                         result.observable(), base.observable())
        return None

    def check_levels() -> Optional[str]:
        unopt = compile_workload(
            source, CgcmConfig(opt_level=OptLevel.UNOPTIMIZED), name)
        result = unopt.run()
        if result.observable() != base.observable():
            return _diff("unoptimized vs optimized observables",
                         result.observable(), base.observable())
        return None

    # The source-engine runs below compile every function they enter
    # (``HOT_RATIO = 0``), so they hold srcgen, not its tree-walked
    # cold tier, to the tree-walker.
    @hot_ratio(0)
    def check_engines() -> Optional[str]:
        tree = optimized.run(engine="tree")
        other = optimized.run(engine="source")
        if tree.observable() != other.observable():
            return _diff("tree vs source observables",
                         tree.observable(), other.observable())
        if _clocks(tree) != _clocks(other):
            return _diff("tree vs source clocks", _clocks(tree),
                         _clocks(other))
        if slow:
            unopt = compile_workload(
                source, CgcmConfig(opt_level=OptLevel.UNOPTIMIZED), name)
            t = unopt.run(engine="tree")
            o = unopt.run(engine="source")
            if t.observable() != o.observable() \
                    or _clocks(t) != _clocks(o):
                return "tree vs source diverged at unoptimized"
        return None

    @hot_ratio(0)
    def check_streams() -> Optional[str]:
        streams = compile_workload(source, CgcmConfig(streams=True), name)
        result = streams.run()
        if result.observable() != base.observable():
            return _diff("streams-on vs streams-off observables",
                         result.observable(), base.observable())
        if result.critical_path_seconds > result.total_seconds * (1 + 1e-9):
            return (f"critical path {result.critical_path_seconds} "
                    f"exceeds serial sum {result.total_seconds}")
        tree = streams.run(engine="tree")
        if tree.observable() != result.observable():
            return _diff("streams tree vs source observables",
                         tree.observable(), result.observable())
        if _clocks(tree) != _clocks(result):
            return _diff("streams tree vs source clocks", _clocks(tree),
                         _clocks(result))
        return None

    def check_sanitizer() -> Optional[str]:
        from ..sanitizer.differential import run_differential
        levels = [OptLevel.OPTIMIZED]
        if slow:
            levels.append(OptLevel.UNOPTIMIZED)
        for level in levels:
            report = run_differential(source, name, level)
            if not report.ok:
                problems = list(report.mismatches)
                problems += [v.render() if hasattr(v, "render") else str(v)
                             for v in report.violations]
                if report.error:
                    problems.append(report.error)
                return f"{level.value}: " + "; ".join(problems[:4])
        return None

    def check_static() -> Optional[str]:
        reports = [optimized.lint()]
        if slow:
            unopt = compile_workload(
                source, CgcmConfig(opt_level=OptLevel.UNOPTIMIZED), name)
            reports.append(unopt.lint())
        for report in reports:
            if not report.clean:
                first = report.errors[0]
                return f"{len(report.errors)} errors, first: {first.render()}"
        return None

    def check_faults() -> Optional[str]:
        # Every schedule but ``overhead``, which fires nothing:
        # transient, plus pressure and tiny-heap when ``slow``.
        schedules = fault_schedules(fault_seed)[1:]
        for _, overrides in schedules if slow else schedules[:1]:
            chaotic = compile_workload(source, CgcmConfig(**overrides),
                                       name)
            result = chaotic.run()
            if result.observable() != base.observable():
                return _diff("fault-injected vs clean observables",
                             result.observable(), base.observable())
        return None

    def check_transval() -> Optional[str]:
        # Streams is the configuration that runs every optimize-stage
        # pass, including comm overlap; faults cannot combine with it.
        validated = compile_workload(
            source, CgcmConfig(streams=True, validate=True), name)
        violations = [f for f in validated.report.validation
                      if f.severity is Severity.ERROR]
        if violations:
            return (f"{len(violations)} contract violations, first: "
                    f"{violations[0].render()}")
        return None

    attempt("oracle", check_oracle)
    attempt("levels", check_levels)
    attempt("engines", check_engines)
    attempt("streams", check_streams)
    attempt("sanitizer", check_sanitizer)
    attempt("static", check_static)
    attempt("faults", check_faults)
    if validate:
        attempt("transval", check_transval)
    return verdict


def check_program(program: GeneratedProgram,
                  slow: bool = False,
                  validate: bool = False) -> ScenarioVerdict:
    """Property matrix over one generated program (oracle included)."""
    return check_source(program.source, program.name,
                        program.expected_stdout, slow=slow,
                        validate=validate)


# -- fuzz runs -------------------------------------------------------------

@dataclass
class Counterexample:
    """A failing program, minimized."""

    name: str
    failed: Tuple[str, ...]
    source: str
    minimized_source: str
    minimized_summary: str


@dataclass
class FuzzReport:
    """Outcome of one seeded fuzz run."""

    seed: int
    count: int
    slow: bool
    verdicts: List[ScenarioVerdict] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.ok)

    @property
    def ok(self) -> bool:
        return self.passed == len(self.verdicts)

    def render(self) -> str:
        lines = [f"fuzz seed={self.seed}: {self.passed}/"
                 f"{len(self.verdicts)} programs pass "
                 f"{'the slow' if self.slow else 'the fast'} "
                 f"property matrix"]
        for verdict in self.verdicts:
            if not verdict.ok:
                lines.append("  " + verdict.summary())
        for ce in self.counterexamples:
            lines.append(f"  minimized {ce.name} "
                         f"({', '.join(ce.failed)}):")
            lines.extend("    " + line
                         for line in ce.minimized_source.splitlines())
        return "\n".join(lines)


def _minimize_failure(program: GeneratedProgram, slow: bool,
                      validate: bool = False) -> Counterexample:
    """Shrink a failing spec to the smallest spec that still fails the
    same way (same non-empty failed-property set, any subset)."""
    original = check_program(program, slow=slow, validate=validate)
    target = set(original.failed)

    def still_failing(spec: ScenarioSpec) -> bool:
        candidate = materialize(spec, program.name + "-min")
        verdict = check_program(candidate, slow=slow, validate=validate)
        failed = set(verdict.failed)
        return bool(failed) and failed <= target

    reduced = minimize_spec(program.spec, still_failing)
    minimized = materialize(reduced, program.name + "-min")
    summary = check_program(minimized, slow=slow,
                            validate=validate).summary()
    return Counterexample(program.name, original.failed, program.source,
                          minimized.source, summary)


def run_fuzz(seed: int, count: int, slow: bool = False,
             progress: Optional[Callable[[ScenarioVerdict], None]] = None,
             minimize: bool = True,
             validate: bool = False) -> FuzzReport:
    """Generate ``count`` programs from ``seed`` and check them all.

    Deterministic end to end: the same ``(seed, count, slow,
    validate)`` yields the same programs, the same verdicts, and (on
    failure) the same minimized counterexamples.  ``validate`` adds
    the translation-validation property to the matrix.
    """
    report = FuzzReport(seed, count, slow)
    for index in range(count):
        program = generate_program(seed, index)
        verdict = check_program(program, slow=slow, validate=validate)
        report.verdicts.append(verdict)
        if progress is not None:
            progress(verdict)
        if not verdict.ok and minimize:
            report.counterexamples.append(
                _minimize_failure(program, slow, validate))
    return report
