"""Engine equivalence: the source engine must agree with the tree.

The source engine exists only for speed; any observable difference
-- stdout, exit code, final global bytes, dynamic instruction count,
or a single bit of any simulated-clock lane or of the streams
critical path -- is a bug.
The fast subset runs in tier-1; the full 24-workload sweeps and the
25-program fuzz corpus are ``slow``.
"""

import pytest

from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.evaluation.bench import compare_engines
from repro.gpu.topology import Topology
from repro.workloads import ALL_WORKLOADS, get_workload, workload_names

#: The source engine compiles every function it enters, so the matrix
#: holds srcgen, not its tree-walked cold tier, to the tree-walker.
pytestmark = pytest.mark.usefixtures("compile_all")

#: Small-but-diverse tier-1 subset (int, float, multi-kernel, glue).
FAST_WORKLOADS = ("atax", "nw", "kmeans", "blackscholes")

#: Engines held to the tree-walker oracle.
FAST_ENGINES = ("source",)

#: The asynchronous columns: streams on one device (host code runs
#: under the write-back guard) and a four-device ring.
ASYNC_CONFIGS = {
    "streams": CgcmConfig(streams=True),
    "ring4": CgcmConfig(streams=True, topology=Topology.ring(4)),
}

#: Tier-1 ring subset (the ring column costs the most per workload).
RING_WORKLOADS = ("atax", "kmeans")


def engine_results(name: str, config: CgcmConfig):
    workload = get_workload(name)
    compiler = CgcmCompiler(config)
    report = compiler.compile_source(workload.source, workload.name)
    return {engine: compiler.execute(report, engine=engine)
            for engine in ("tree",) + FAST_ENGINES}


def assert_engines_identical(name: str, config: CgcmConfig) -> None:
    results = engine_results(name, config)
    for engine in FAST_ENGINES:
        assert compare_engines(results["tree"], results[engine]) == (), \
            engine


@pytest.mark.parametrize("name", FAST_WORKLOADS)
@pytest.mark.parametrize("level",
                         [OptLevel.SEQUENTIAL, OptLevel.OPTIMIZED],
                         ids=lambda l: l.value)
def test_engines_identical_fast(name, level):
    assert_engines_identical(name, CgcmConfig(opt_level=level))


@pytest.mark.parametrize("name,column",
                         [(name, "streams") for name in FAST_WORKLOADS]
                         + [(name, "ring4") for name in RING_WORKLOADS])
def test_engines_identical_async_fast(name, column):
    assert_engines_identical(name, ASYNC_CONFIGS[column])


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_engines_identical_all_workloads(name):
    assert_engines_identical(name, CgcmConfig(opt_level=OptLevel.OPTIMIZED))


@pytest.mark.slow
@pytest.mark.parametrize("name", workload_names())
def test_engines_identical_unoptimized(name):
    assert_engines_identical(name,
                             CgcmConfig(opt_level=OptLevel.UNOPTIMIZED))


@pytest.mark.slow
@pytest.mark.parametrize("column", sorted(ASYNC_CONFIGS))
@pytest.mark.parametrize("name", workload_names())
def test_engines_identical_async_all_workloads(name, column):
    assert_engines_identical(name, ASYNC_CONFIGS[column])


@pytest.mark.slow
@pytest.mark.parametrize("index", range(25))
def test_engines_identical_fuzz_corpus(index):
    """25 generator programs, clock-for-clock across the engines.

    The fuzz generator reaches IR shapes the workloads do not
    (degenerate loops, dead blocks, deep conditional ladders), so it
    exercises the source engine's block fusion and dispatch fallback
    paths.
    """
    from repro.scenarios.generator import generate_program

    program = generate_program(0, index)
    compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED))
    report = compiler.compile_source(program.source, program.name)
    tree = compiler.execute(report, engine="tree")
    for engine in FAST_ENGINES:
        other = compiler.execute(report, engine=engine)
        assert compare_engines(tree, other) == (), engine


@pytest.mark.parametrize("name", ("atax", "kmeans"))
@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_sanitizer_armed_subset(name, engine):
    """Hook-compiled variants keep the sanitizer's view identical.

    Both engines execute the *same* compiled module: recompiling per
    engine may legally reorder instructions, which shifts the int
    partition at clock flushes and the exact-float comparison with it.
    """
    from repro.interp import Machine
    from repro.runtime import CgcmRuntime
    from repro.sanitizer import CommSanitizer

    workload = get_workload(name)
    compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED))
    report = compiler.compile_source(workload.source, workload.name)
    runs = {}
    for which in ("tree", engine):
        machine = Machine(report.module, compiler.config.cost_model,
                          engine=which)
        runtime = CgcmRuntime(machine)
        sanitizer = CommSanitizer(machine, runtime)
        exit_code = machine.run()
        sanitizer_report = sanitizer.finish()
        runs[which] = (exit_code, list(machine.stdout),
                       machine.clock.totals(),
                       machine.executed_instructions,
                       sanitizer_report)
    tree, other = runs["tree"], runs[engine]
    # Everything down to exact clock floats and sanitizer statistics.
    assert tree[:4] == other[:4]
    assert tree[4].clean and other[4].clean
    assert tree[4].stats == other[4].stats
    # The sanitizer saw real traffic, i.e. the hooks did fire.
    assert any(tree[4].stats.values())

    # The full differential oracle stays clean under the fast engine.
    from repro.sanitizer import run_differential_workload
    oracle = run_differential_workload(name, OptLevel.OPTIMIZED,
                                       engine=engine)
    assert oracle.ok, f"{engine}: {oracle.summary()}"


def test_config_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        CgcmConfig(engine="jit")


def test_default_engine_is_source():
    assert CgcmConfig().engine == "source"
    assert len(ALL_WORKLOADS) == 24
