"""The scenario engine: generated MiniC workloads with exact oracles.

The 24 ported benchmarks are fixed points; this package manufactures
*novel* well-typed MiniC programs (seeded and deterministic), pairs
each with a bit-exact pure-Python CPU reference, and runs the whole
stack's correctness claims over them as one differential property
matrix -- engines, optimization levels, streams, sanitizer, static
checkers, and fault injection.  ``python -m repro fuzz`` is the
command-line face; the hypothesis strategies in
:mod:`repro.scenarios.generator` are the property-test face.
"""

from .generator import (GeneratedProgram, build_spec, generate_program,
                        program_seed, scenario_specs)
from .harness import (FuzzReport, PropertyOutcome, ScenarioVerdict,
                      check_program, check_source, run_fuzz)
from .shrink import minimize_spec, spec_size
from .spec import ScenarioSpec, emit_minic, evaluate_spec

__all__ = [
    "GeneratedProgram", "build_spec", "generate_program", "program_seed",
    "scenario_specs", "FuzzReport", "PropertyOutcome",
    "ScenarioVerdict", "check_program", "check_source", "run_fuzz",
    "minimize_spec", "spec_size", "ScenarioSpec", "emit_minic",
    "evaluate_spec",
]
