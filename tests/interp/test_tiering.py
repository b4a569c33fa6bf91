"""Tiered execution in the source engine.

A (function, mode) tree-walks until the instructions predicted for its
entries reach ``HOT_RATIO`` times its static size, then compiles (see
``repro.interp.machine.Tier``).  The engines are clock-for-clock
identical, so every mix of tiers must reproduce the tree-walker's
stdout, clocks, instruction count and frame ids; the structural tests
pin where the default threshold puts the line.
"""

import gc
import math
import weakref

import pytest

from repro.core import CgcmCompiler, CgcmConfig
from repro.frontend import compile_minic
from repro.interp import Machine, machine as machine_module, srcgen
from repro.interp.machine import HOT_RATIO, UNKNOWN_TRIPS, hot_ratio, \
    tier_of
from repro.runtime import CgcmRuntime
from repro.sanitizer import CommSanitizer
from repro.scenarios.generator import generate_program
from repro.workloads import get_workload


def run(program: str, engine: str):
    """Run ``program`` with the runtime; the machine and what the
    engines must agree on."""
    machine = Machine(compile_minic(program), engine=engine)
    CgcmRuntime(machine).declare_all_globals()
    assert machine.run() == 0
    return machine, (machine.stdout, machine.clock.totals(),
                     machine.executed_instructions, machine._frame_counter)


def compiled(machine):
    """(function, mode, grid) of every variant the machine compiled."""
    return {(fn.name, mode, grid)
            for fn, mode, _, _, grid in machine._compiled}


def same_as_tree(program: str):
    """Run on both engines, assert equal observables; the source
    engine's machine."""
    _, tree = run(program, "tree")
    machine, source = run(program, "source")
    assert source == tree
    return machine


#: Compiled ``main`` (a 400-trip loop) calls two callees twice each,
#: too few entries to turn them hot: the thunks tree-walk them, one
#: with a frame (its parameter lives in an alloca), one without.
COLD_CALLEES = r"""
    long G[1];
    long bump(long x) { long y = x * 3; return y + 1; }
    long tick(void) { return G[0] + 1; }
    int main(void) {
        long s = 0;
        for (long i = 0; i < 400; i++) s += i % 7;
        G[0] = bump(s) + bump(2);
        s += tick() + tick();
        print_i64(s);
        return 0;
    }
"""

#: Straight-line ``main`` calls a function with a 32x32 nest.
HOT_CALLEE = r"""
    double A[32][32];
    void fill(void) {
        for (int i = 0; i < 32; i++)
            for (int j = 0; j < 32; j++)
                A[i][j] = i * 0.5 + j;
    }
    int main(void) {
        fill();
        print_f64(A[31][31]);
        return 0;
    }
"""

#: ``bump`` is loop-free, so its 20th entry makes it hot.
TURNS_HOT = r"""
    long bump(long x) { long y = x * 3; return y + 1; }
    int main(void) {
        long s = 0;
        for (long i = 0; i < 100; i++) s = (s + bump(i)) % 1000003;
        print_i64(s);
        return 0;
    }
"""

#: Compiled ``main`` launches two threads of a loop-free kernel.
COLD_LAUNCH = r"""
    double out[4];
    __global__ void seed(long tid, double *o) { o[tid] = tid * 2.0; }
    int main(void) {
        double s = 0.0;
        for (long i = 0; i < 300; i++) s += i;
        double *d = (double *) map((char *) out);
        __launch(seed, 2, d);
        unmap((char *) out);
        release((char *) out);
        print_f64(s + out[1]);
        return 0;
    }
"""

#: Straight-line ``main`` launches 512 threads; each calls a leaf
#: device function, which the grid variant runs in place.
HOT_GRID = r"""
    double out[512];
    double twice(double x) { return x * 2.0; }
    __global__ void seed(long tid, double *o) { o[tid] = twice(tid); }
    int main(void) {
        double *d = (double *) map((char *) out);
        __launch(seed, 512, d);
        unmap((char *) out);
        release((char *) out);
        print_f64(out[511]);
        return 0;
    }
"""

#: ``HOT_GRID`` with a callee that stores through its pointer argument,
#: so the grid variant keeps the thunk call into it: the callee
#: turns hot at the 20th thread and runs its own compiled variant.
HOT_GRID_THUNK = r"""
    double out[512];
    void put(double *o, long i) { o[i] = i * 2.0; }
    __global__ void seed(long tid, double *o) { put(o, tid); }
    int main(void) {
        double *d = (double *) map((char *) out);
        __launch(seed, 512, d);
        unmap((char *) out);
        release((char *) out);
        print_f64(out[511]);
        return 0;
    }
"""


class TestStructure:
    """Where the default threshold puts the line."""

    def test_cold_generated_main_is_never_emitted(self):
        program = generate_program(0, 2)
        compiler = CgcmCompiler(CgcmConfig())
        report = compiler.compile_source(program.source, program.name)
        main = report.module.get_function("main")
        tree = compiler.execute(report, engine="tree")
        # The whole program runs fewer instructions than the
        # threshold asks of main alone.
        assert tree.instructions < HOT_RATIO * tier_of(main).static
        source = compiler.execute(report)
        assert source.observable() == tree.observable()
        assert main not in srcgen._CODE_CACHE
        assert "cpu" not in tier_of(main).hot

    def test_wide_grid_compiles_at_its_first_launch(self):
        machine = same_as_tree(HOT_GRID)
        assert ("seed", "gpu", True) in compiled(machine)
        assert ("seed", "gpu", False) not in compiled(machine)
        assert ("main", "cpu", False) not in compiled(machine)
        seed = machine.module.get_function("seed")
        assert set(srcgen._CODE_CACHE[seed]) == {("gpu", False, False,
                                                  True)}

    def test_paper_main_with_a_hot_nest_compiles_on_first_entry(self):
        workload = get_workload("doitgen")
        compiler = CgcmCompiler(CgcmConfig())
        report = compiler.compile_source(workload.source, workload.name)
        compiler.execute(report)
        main = report.module.get_function("main")
        tier = tier_of(main)
        assert tier.seen["cpu"] == tier.predicted  # one entry
        assert "cpu" in tier.hot
        assert ("cpu", False, False, False) in srcgen._CODE_CACHE[main]

    def test_counted_nest_prediction_is_exact(self):
        machine = Machine(compile_minic(HOT_CALLEE), engine="tree")
        machine.run()
        fill = machine.module.get_function("fill")
        main = machine.module.get_function("main")
        assert tier_of(fill).predicted + tier_of(main).predicted \
            == machine.executed_instructions

    def test_unknown_bound_predicts_the_default_trips(self):
        module = compile_minic(r"""
            long f(long n) {
                long s = 0;
                for (long i = 0; i < n; i++) s += i;
                return s;
            }
            int main(void) { return (int) f(3); }
        """)
        fn = module.get_function("f")
        machine = Machine(module, engine="tree")
        for n in (UNKNOWN_TRIPS, UNKNOWN_TRIPS + 1):
            before = machine.executed_instructions
            machine.call(fn, [n])
            executed = machine.executed_instructions - before
            if n == UNKNOWN_TRIPS:
                assert tier_of(fn).predicted == executed
            else:
                assert tier_of(fn).predicted < executed

    def test_tier_state_does_not_keep_the_module_alive(self):
        module = compile_minic(TURNS_HOT)
        machine = Machine(module, engine="source")
        assert machine.run() == 0
        main = module.get_function("main")
        assert any(tier_of(main).depths)
        ref = weakref.ref(module)
        del module, machine, main
        gc.collect()
        assert ref() is None


class TestMixedTiers:
    """Every mix of tiers matches the tree-walker."""

    def test_compiled_caller_tree_walks_cold_callees(self):
        machine = same_as_tree(COLD_CALLEES)
        assert compiled(machine) == {("main", "cpu", False)}

    def test_cold_caller_runs_hot_callee_compiled(self):
        machine = same_as_tree(HOT_CALLEE)
        assert compiled(machine) == {("fill", "cpu", False)}

    def test_callee_turns_hot_mid_loop(self, monkeypatch):
        walked = []
        execute = Machine._execute

        def counting(self, frame):
            walked.append(frame.function.name)
            return execute(self, frame)

        monkeypatch.setattr(Machine, "_execute", counting)
        _, tree = run(TURNS_HOT, "tree")
        walked.clear()
        machine, source = run(TURNS_HOT, "source")
        assert source == tree
        # Entries 1-19 tree-walk; the 20th compiles, and the thunk
        # runs the compiled body from then on.
        assert walked == ["bump"] * (HOT_RATIO - 1)
        assert compiled(machine) == {("main", "cpu", False),
                                     ("bump", "cpu", False)}

    def test_cold_launch_from_compiled_host_code(self):
        machine = same_as_tree(COLD_LAUNCH)
        assert compiled(machine) == {("main", "cpu", False)}
        seed = machine.module.get_function("seed")
        assert seed not in srcgen._CODE_CACHE

    def test_hot_grid_from_tree_walked_main(self):
        machine = same_as_tree(HOT_GRID_THUNK)
        assert compiled(machine) == {("seed", "gpu", True),
                                     ("put", "gpu", False)}
        put = machine.module.get_function("put")
        assert tier_of(put).seen["gpu"] \
            == HOT_RATIO * tier_of(put).predicted

    def test_hot_grid_runs_its_leaf_callee_in_place(self):
        """The grid variant runs a leaf callee in place, so the callee
        is neither compiled nor entered on its own."""
        machine = same_as_tree(HOT_GRID)
        assert compiled(machine) == {("seed", "gpu", True)}
        (code,) = machine._compiled.values()
        assert code.inlined_calls == 1
        twice = machine.module.get_function("twice")
        assert twice not in srcgen._CODE_CACHE
        assert "gpu" not in tier_of(twice).seen

    @pytest.mark.parametrize("program", ("COLD_CALLEES", "TURNS_HOT",
                                         "COLD_LAUNCH", "HOT_GRID"))
    def test_sanitized_mixed_run_logs_the_tree_walker_events(self, program):
        source = globals()[program]
        runs = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(source), engine=engine)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            sanitizer = CommSanitizer(machine, runtime)
            log = []
            machine.mem_hooks.append(
                lambda m, kind, address, size, log=log:
                log.append((m.mode, kind, address, size)))
            assert machine.run() == 0
            report = sanitizer.finish()
            assert report.clean
            runs[engine] = (log, report.stats, machine.stdout,
                            machine.clock.totals(),
                            machine.executed_instructions,
                            machine._frame_counter)
        assert runs["source"] == runs["tree"]
        assert runs["tree"][0]

    def test_streams_mixed_run_guards_where_the_tree_does(self):
        program = r"""
            double A[64];
            __global__ void scale(long tid) { A[tid] = A[tid] * 2.0; }
            double total(void) {
                double s = 0.0;
                for (int i = 0; i < 64; i++) s += A[i];
                return s;
            }
            double peek(long i) { return A[i]; }
            int main(void) {
                for (int i = 0; i < 64; i++) A[i] = i + 1;
                mapAsync((char *) A);
                __launch(scale, 64);
                unmapAsync((char *) A);
                double s = peek(3) + total() + A[5];
                cgcmSync();
                print_f64(s);
                release((char *) A);
                return 0;
            }
        """
        runs = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(program), engine=engine,
                              streams=True)
            CgcmRuntime(machine).declare_all_globals()
            pending, guard = machine.writeback_guard
            calls = []

            def recording(m, kind, address, size, calls=calls):
                calls.append((kind, address, size, len(pending)))
                guard(m, kind, address, size)

            machine.writeback_guard = (pending, recording)
            assert machine.run() == 0
            runs[engine] = (calls, machine.stdout, machine.clock.totals(),
                            machine.executed_instructions,
                            machine._frame_counter)
            tiers = compiled(machine)
        assert runs["source"] == runs["tree"]
        assert runs["tree"][0]
        # The tree-walked peek drains the write-back; main is hot.
        assert ("peek", "cpu", False) not in tiers
        assert ("main", "cpu", False) in tiers


class TestThresholdExtremes:
    PROGRAMS = (COLD_CALLEES, HOT_CALLEE, TURNS_HOT, COLD_LAUNCH, HOT_GRID,
                HOT_GRID_THUNK)

    def test_zero_compiles_every_entered_function(self):
        with hot_ratio(0):
            for program in self.PROGRAMS:
                machine = same_as_tree(program)
                entered = {fn.name
                           for fn in machine.module.defined_functions()
                           if fn in machine_module._TIERS}
                assert {name for name, _, _ in compiled(machine)} \
                    == entered
            machine = same_as_tree(COLD_LAUNCH)
            assert ("seed", "gpu", True) in compiled(machine)

    def test_infinity_compiles_nothing(self, monkeypatch):
        emitted = []
        emit = srcgen._SourceCompiler.compile

        def counting(self):
            emitted.append(self.fn.name)
            return emit(self)

        monkeypatch.setattr(srcgen._SourceCompiler, "compile", counting)
        with hot_ratio(math.inf):
            for program in self.PROGRAMS:
                machine = same_as_tree(program)
                assert not machine._compiled
                assert not any(
                    fn in srcgen._CODE_CACHE
                    for fn in machine.module.defined_functions())
        assert emitted == []

    def test_hot_stays_hot(self):
        module = compile_minic(TURNS_HOT)
        with hot_ratio(0):
            Machine(module, engine="source").run()
        with hot_ratio(math.inf):
            machine = Machine(module, engine="source")
            machine.run()
        assert compiled(machine) == {("main", "cpu", False),
                                     ("bump", "cpu", False)}
