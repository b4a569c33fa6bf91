"""Source-engine unit tests: emission, caching, hook variants.

Holds srcgen to the tree-walker (results, clocks, hook events, GPU
restrictions, compile-time checks) and covers the compiled-cache
keying regression (a sanitizer-armed run must never reuse an
unhooked compiled body, and vice versa), the stack-slot promotion
rules, the fusion plan's nesting cap, and the whole-grid kernel
variant with its launch-time bounds proofs, its counted loops run as
nested ``for`` loops and the loads they stream or hoist, the pointer
tables it reads once per launch and the leaf callees it runs in place.
"""

import gc
import random
import re
import struct
import weakref

import pytest

from repro.api import Session
from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.errors import CgcmUnsupportedError, InterpError, MemoryFault
from repro.frontend import compile_minic
from repro.interp import Machine, srcgen
from repro.interp.machine import CHECKED, hot_ratio
from repro.interp.srcgen import (_NEST_DEPTH, _SourceCompiler,
                                 compile_function_source)
from repro.ir import (FunctionType, I64, IRBuilder, Module, VOID,
                      pointer_to, verify_module)
from repro.ir.instructions import Call, LaunchKernel, Load, Store
from repro.ir.values import Constant
from repro.runtime import CgcmRuntime
from repro.staticcheck.corpus import CORPUS

#: The source engine compiles every function it enters: these tests
#: hold srcgen, not the tree-walked cold tier, to the tree-walker.
pytestmark = pytest.mark.usefixtures("compile_all")


@pytest.fixture(scope="module")
def workload_grids():
    """The 24 workloads, each run once with every function compiled:
    (name, checked launches, the grid variants it compiled)."""
    from repro.workloads import get_workload, workload_names
    runs = []
    with hot_ratio(0):
        for name in workload_names():
            report = CgcmCompiler(CgcmConfig()).compile_source(
                get_workload(name).source, name)
            machine = Machine(report.module, engine="source")
            CgcmRuntime(machine)
            machine.run()
            runs.append((name, machine.checked_launches,
                         [code for code in machine._compiled.values()
                          if code.grid]))
    return runs


def machine_pair(source: str):
    """(tree machine, source-engine machine) for the same source."""
    return (Machine(compile_minic(source), engine="tree"),
            Machine(compile_minic(source), engine="source"))


class TestEmission:
    def test_registers_are_locals_and_source_attached(self):
        source = "int main(void) { return 2 + 3; }"
        machine = Machine(compile_minic(source), engine="source")
        fn = machine.module.get_function("main")
        code = compile_function_source(machine, fn, "cpu", False)
        assert code.mode == "cpu" and not code.hooked
        assert "def __srcgen(args" in code.source
        assert machine.run() == 5

    def test_straight_line_function_has_no_dispatch_loop(self):
        """Block fusion: an acyclic body emits no ``while``/jump table."""
        source = r"""
            long pick(long n) {
                if (n < 10) return n * 2;
                return n - 1;
            }
            int main(void) { return (int) (pick(3) + pick(40)); }
        """
        machine = Machine(compile_minic(source), engine="source")
        assert machine.run() == 45
        fn = machine.module.get_function("pick")
        code = compile_function_source(machine, fn, "cpu", False)
        assert "while True:" not in code.source
        assert "_b =" not in code.source

    def test_loops_keep_the_dispatch_header(self):
        source = r"""
            int main(void) {
                long s = 0;
                for (long i = 0; i < 5; i++) s += i;
                return (int) s;
            }
        """
        machine = Machine(compile_minic(source), engine="source")
        fn = machine.module.get_function("main")
        code = compile_function_source(machine, fn, "cpu", False)
        assert "while True:" in code.source
        assert machine.run() == 10


class TestCompiledCacheKeying:
    """Satellite regression: variants are keyed by armed hook *set*."""

    SOURCE = r"""
        long A[4];
        int main(void) {
            for (int i = 0; i < 4; i++) A[i] = i;
            long s = 0;
            for (int i = 0; i < 4; i++) s += A[i];
            return (int) s;
        }
    """

    @pytest.mark.parametrize("engine", ("source",))
    def test_armed_run_never_reuses_unhooked_body(self, engine):
        machine = Machine(compile_minic(self.SOURCE), engine=engine)
        fn = machine.module.get_function("main")
        unhooked = machine.compiled_for(fn)
        assert not unhooked.hooked
        hook = lambda *a: None  # noqa: E731
        machine.mem_hooks.append(hook)
        armed = machine.compiled_for(fn)
        assert armed is not unhooked and armed.hooked
        # ... and an unhooked lookup never reuses the armed body.
        machine.mem_hooks.remove(hook)
        disarmed = machine.compiled_for(fn)
        assert disarmed is unhooked and not disarmed.hooked

    @pytest.mark.parametrize("engine", ("source",))
    def test_distinct_hook_sets_get_distinct_variants(self, engine):
        machine = Machine(compile_minic(self.SOURCE), engine=engine)
        fn = machine.module.get_function("main")
        first_hook = lambda *a: None  # noqa: E731
        second_hook = lambda *a: None  # noqa: E731
        machine.mem_hooks.append(first_hook)
        first = machine.compiled_for(fn)
        machine.mem_hooks.append(second_hook)
        second = machine.compiled_for(fn)
        assert second is not first

    def test_code_cache_shared_across_machines(self):
        """Emission happens once per function; later machines only
        re-instantiate the baked namespace."""
        module = compile_minic(self.SOURCE)
        fn = module.get_function("main")
        first = compile_function_source(
            Machine(module, engine="source"), fn, "cpu", False)
        second = compile_function_source(
            Machine(module, engine="source"), fn, "cpu", False)
        assert first is not second  # per-machine callables ...
        assert first.source == second.source  # ... one cached emission
        assert first.__code__ is second.__code__

    def test_dropped_workload_frees_its_module(self):
        """The code cache is keyed weakly by function, and its recipes
        resolve callees and kernels by name: once the workload and its
        session are gone, nothing keeps the module alive."""
        program = r"""
            double A[64];
            double twice(double x) { return x * 2.0; }
            int main(void) {
                for (int i = 0; i < 64; i++) A[i] = twice(i);
                for (int i = 0; i < 64; i++) A[i] = A[i] + 1.0;
                print_f64(A[63]);
                return 0;
            }
        """
        session = Session()
        workload = session.compile(program)
        insts = [inst for fn in workload.module.defined_functions()
                 for inst in fn.instructions()]
        assert any(isinstance(inst, LaunchKernel) for inst in insts)
        assert any(isinstance(inst, Call) and not inst.callee.is_declaration
                   for inst in insts)
        assert workload.run().stdout == ("127",)
        module = weakref.ref(workload.module)
        del workload, session, insts
        gc.collect()
        assert module() is None


class TestResultEquivalence:
    SOURCE = r"""
        long fib(long n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) {
            print_i64(fib(15));
            return 0;
        }
    """

    def test_recursion_and_reentrant_locals(self):
        tree, source = machine_pair(self.SOURCE)
        assert tree.run() == source.run() == 0
        assert tree.stdout == source.stdout == ["610"]
        assert tree.clock.totals() == source.clock.totals()
        assert tree.executed_instructions == source.executed_instructions

    def test_division_costs_charged_identically(self):
        program = r"""
            int main(void) {
                long s = 0;
                for (long i = 1; i < 50; i++) s += (1000 / i) % 7;
                print_i64(s);
                return 0;
            }
        """
        tree, source = machine_pair(program)
        tree.run(), source.run()
        assert tree.stdout == source.stdout
        assert tree.clock.totals() == source.clock.totals()

    def test_float_semantics_match(self):
        program = r"""
            int main(void) {
                double z = 0.0;
                print_f64(1.0 / z);
                print_f64(-1.0 / z);
                float f = 1.5;
                print_f64((double) (f * 3.0));
                print_i64((long) (7.9 / 2.0));
                return 0;
            }
        """
        tree, source = machine_pair(program)
        tree.run(), source.run()
        assert tree.stdout == source.stdout

    def test_integer_division_by_zero_raises(self):
        program = r"""
            int main(void) {
                long z = 0;
                return (int) (7 / z);
            }
        """
        machine = Machine(compile_minic(program), engine="source")
        with pytest.raises(InterpError, match="division by zero"):
            machine.run()


class TestHookedVariants:
    def test_mem_hooks_fire_identically(self):
        program = r"""
            long A[4];
            int main(void) {
                for (int i = 0; i < 4; i++) A[i] = i * i;
                long s = 0;
                for (int i = 0; i < 4; i++) s += A[i];
                return (int) s;
            }
        """
        events = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(program), engine=engine)
            log = []
            machine.mem_hooks.append(
                lambda m, kind, addr, size, log=log:
                log.append((kind, addr, size)))
            assert machine.run() == 14
            events[engine] = log
        assert events["tree"] == events["source"]
        assert any(kind == "store" for kind, _, _ in events["tree"])

    @pytest.mark.parametrize("engine", ("source",))
    def test_mem_hooks_fire_identically_under_streams(self, engine):
        """With the streams write-back guard armed and firing, an
        observer still sees the tree-walker's event stream, kernel
        accesses included."""
        program = next(defect.source for defect in CORPUS
                       if defect.name == "async-use-before-sync")
        events = {}
        for which in ("tree", engine):
            machine = Machine(compile_minic(program), engine=which,
                              streams=True)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            log = []
            machine.mem_hooks.append(
                lambda m, kind, addr, size, log=log:
                log.append((m.mode, kind, addr, size)))
            assert machine.run() == 0
            events[which] = (log, machine.stdout, machine.clock.totals(),
                             runtime.guard_syncs)
        assert events["tree"] == events[engine]
        assert {mode for mode, *_ in events["tree"][0]} == {"cpu", "gpu"}


def same_run(tree, source):
    """Both machines ran: identical stdout, clocks and instruction
    count."""
    assert tree.run() == source.run()
    assert tree.stdout == source.stdout
    assert tree.clock.totals() == source.clock.totals()
    assert tree.executed_instructions == source.executed_instructions


def promoted_names(machine, name):
    """IR names of the allocas the unhooked CPU variant of function
    ``name`` keeps in Python locals."""
    fn = machine.module.get_function(name)
    compiler = _SourceCompiler(machine, fn, "cpu", False, False)
    return {alloca.name for alloca in compiler._promoted_slots()}


class TestSlotPromotion:
    """Non-escaping scalar stack slots live in Python locals in the
    unhooked variants; every other slot keeps the memory path."""

    COUNTER = r"""
        int main(void) {
            long s = 0;
            for (long i = 0; i < 6; i++) s += i * i;
            print_i64(s);
            return 0;
        }
    """

    #: Loads and stores that keep the memory path: a typed-view index
    #: or the codec fallback helper.
    MEMORY_ACCESS = re.compile(r"_cs\d+\.v[bhiqQfd]\[|_(ld|st)\d+\(")
    SLOT_ASSIGN = re.compile(r"^\s*s\d+ = ", re.M)

    def test_counter_and_accumulator_use_no_segment_site(self):
        machine = Machine(compile_minic(self.COUNTER), engine="source")
        fn = machine.module.get_function("main")
        code = compile_function_source(machine, fn, "cpu", False)
        # Both allocas are promoted: each keeps the stack-pointer bump
        # and the limit test, but no zero-fill through a segment site.
        assert not re.search(r"_cs\d+|_stk", code.source)
        assert code.source.count("if M._cpu_sp > ") == 2
        assert not self.MEMORY_ACCESS.search(code.source)
        assert promoted_names(machine, "main") == {"s.addr", "i.addr"}
        same_run(Machine(compile_minic(self.COUNTER), engine="tree"),
                 machine)
        assert machine.stdout == ["55"]

    ESCAPES = {
        "address_passed_to_call": (r"""
            void bump(long *p) { *p = *p + 3; }
            int main(void) {
                long x = 1;
                for (long i = 0; i < 4; i++) bump(&x);
                print_i64(x);
                return 0;
            }""", "x.addr", "i.addr"),
        "address_stored_in_pointer": (r"""
            int main(void) {
                long y = 5;
                long *q = &y;
                for (long i = 0; i < 4; i++) *q = *q + i;
                print_i64(y);
                return 0;
            }""", "y.addr", "q.addr"),
        "local_array": (r"""
            int main(void) {
                long a[4];
                long s = 0;
                for (long i = 0; i < 4; i++) a[i] = i * 7;
                for (long i = 0; i < 4; i++) s += a[i];
                print_i64(s);
                return 0;
            }""", "a.addr", "s.addr"),
    }

    @pytest.mark.parametrize("name", sorted(ESCAPES))
    def test_escaping_slots_keep_the_memory_path(self, name):
        program, escaped, promoted = self.ESCAPES[name]
        tree, source = machine_pair(program)
        names = promoted_names(source, "main")
        assert escaped not in names and promoted in names
        same_run(tree, source)

    #: ``smooth`` has its scratch array preallocated by the caller's
    #: ``declareAlloca`` under the optimized pipeline; recursive
    #: ``spin`` keeps its own.
    DECLARED = {
        "smooth": r"""
            void smooth(long n) {
                double tmp[16];
                for (int i = 0; i < 16; i++) tmp[i] = i * n;
                double s = 0.0;
                for (int i = 0; i < 16; i++) s += tmp[i];
                print_f64(s);
            }
            int main(void) {
                for (int t = 0; t < 3; t++) smooth(t);
                return 0;
            }""",
        "spin": r"""
            double out[8];
            void spin(long depth) {
                double tmp[8];
                for (int i = 0; i < 8; i++) tmp[i] = depth;
                for (int i = 0; i < 8; i++) out[i] = out[i] + tmp[i];
                if (depth > 0) spin(depth - 1);
            }
            int main(void) { spin(2); print_f64(out[0]); return 0; }""",
    }

    @pytest.mark.parametrize("name", sorted(DECLARED))
    def test_declared_allocas_keep_the_memory_path(self, name):
        compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED))
        report = compiler.compile_source(self.DECLARED[name], name)
        assert any(isinstance(i, Call) and i.callee.name == "declareAlloca"
                   for fn in report.module.defined_functions()
                   for i in fn.instructions())
        # The scalar locals are promoted; the declared array is runtime
        # stack memory that kernels reach through its mapping.
        names = promoted_names(Machine(report.module, engine="source"),
                               name)
        assert names and not any(n.startswith("tmp") for n in names)
        tree = compiler.execute(report, engine="tree")
        other = compiler.execute(report, engine="source")
        assert other.observable() == tree.observable()
        assert (other.cpu_seconds, other.gpu_seconds, other.comm_seconds,
                other.instructions) == (tree.cpu_seconds, tree.gpu_seconds,
                                        tree.comm_seconds, tree.instructions)

    WRAPS = {
        # Three stores past the char range.
        "char": (r"""
            int main(void) {
                char c = 100;
                c = c + 100;
                c = c + 100;
                c = c + 100;
                print_i64(c);
                return 0;
            }""", "c.addr", "-112"),
        # An external result one past the i64 range.
        "call_result": (r"""
            int main(void) {
                long m = -9223372036854775807 - 1;
                long a = abs_i64(m);
                print_i64(a);
                return 0;
            }""", "a.addr", "-9223372036854775808"),
    }

    @pytest.mark.parametrize("name", sorted(WRAPS))
    def test_slot_stores_wrap_like_memory(self, name):
        program, slot, expected = self.WRAPS[name]
        tree, source = machine_pair(program)
        assert slot in promoted_names(source, "main")
        same_run(tree, source)
        assert source.stdout == [expected]

    def test_hooked_variants_never_promote(self):
        machine = Machine(compile_minic(self.COUNTER), engine="source")
        fn = machine.module.get_function("main")
        plain = compile_function_source(machine, fn, "cpu", False)
        hooked = compile_function_source(machine, fn, "cpu", True)
        assert self.SLOT_ASSIGN.search(plain.source)
        assert not self.SLOT_ASSIGN.search(hooked.source)
        insts = list(fn.instructions())
        assert hooked.source.count('_h(M, "load"') == \
            sum(isinstance(i, Load) for i in insts)
        assert hooked.source.count('_h(M, "store"') == \
            sum(isinstance(i, Store) for i in insts)

    def test_guarded_variants_guard_every_promoted_access(self):
        """With a write-back pending, every access -- promoted slots
        included -- consults the guard exactly where the tree-walker
        does, with the slot's stack address."""
        runs = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(self.COUNTER), engine=engine)
            log = []
            machine.writeback_guard = (
                {0: None}, lambda m, kind, address, size, log=log:
                log.append((kind, address, size)))
            assert machine.run() == 0
            runs[engine] = (log, machine.stdout, machine.clock.totals(),
                            machine.executed_instructions)
        assert runs["tree"] == runs["source"]
        code = machine.compiled_for(machine.module.get_function("main"))
        assert code.guarded and self.SLOT_ASSIGN.search(code.source)
        stack = machine.cpu_memory.segment("stack")
        assert all(stack.contains(address) for _, address, _ in runs["tree"][0])


def main_source(machine) -> str:
    """The emitted source of ``main``'s unhooked CPU variant."""
    fn = machine.module.get_function("main")
    return compile_function_source(machine, fn, "cpu", False).source


#: ``A[i]`` put through 240 adjacent single-use float ops, 120
#: parentheses deep: folded without a cap, the emitted expression
#: would pass the parser's limit on nested parentheses.
CHAIN = "A[i]"
for _ in range(120):
    CHAIN = f"({CHAIN} + 0.5) * 0.5"


class TestRangeProofsAndFolds:
    """Range-proven int arithmetic, the charge carried along fault-free
    paths, and the slot, compare and single-use folds keep the
    tree-walker's results, clocks and instruction counts."""

    WRAP = re.compile(r"^\s*_v = ", re.M)
    SLOT_COPY = re.compile(r"^\s*r\d+ = s\d+$", re.M)

    def test_char_counter_keeps_its_wraps(self):
        """``c * 3`` passes 127, so the store into the char wraps."""
        tree, source = machine_pair(r"""
            char C[60];
            int main(void) {
                for (char c = 0; c < 60; c++) C[c] = c * 3;
                long s = 0;
                for (int i = 0; i < 60; i++) s += C[i];
                print_i64(s);
                print_i64(C[59]);
                return 0;
            }""")
        same_run(tree, source)
        assert source.stdout == ["958", "-79"]
        assert self.WRAP.search(main_source(source))

    def test_overflow_and_negative_dividends_keep_their_wraps(self):
        """``L[k]`` near ``2^63`` overflows; ``k - 9`` can be negative,
        so its div and rem keep C truncation, while the non-negative
        ``k`` divides with Python's floor."""
        tree, source = machine_pair(r"""
            long L[20];
            int main(void) {
                for (long k = 0; k < 20; k++)
                    L[k] = 9223372036854775800 + k % 3;
                for (long k = 0; k < 20; k++)
                    L[k] = L[k] + (k - 9) % 4 + (k - 9) / 4 + k % 3 + k / 2;
                for (int i = 0; i < 20; i++) print_i64(L[i]);
                return 0;
            }""")
        same_run(tree, source)
        assert source.stdout[19] == "-9223372036854775801"
        text = main_source(source)
        assert text.count("_tdi(") == 2
        assert " % 3" in text and " // 2" in text
        assert self.WRAP.search(text)

    def test_proof_at_the_top_of_the_type(self):
        """``i + 1`` reaches ``2^63 - 1`` and needs no wrap."""
        tree, source = machine_pair(r"""
            long L[8];
            int main(void) {
                for (long i = 9223372036854775800;
                     i <= 9223372036854775806; i++)
                    L[i - 9223372036854775800] = i + 1;
                for (int i = 0; i < 7; i++) print_i64(L[i]);
                return 0;
            }""")
        same_run(tree, source)
        assert source.stdout[-1] == "9223372036854775807"
        assert not self.WRAP.search(main_source(source))

    def test_loaded_bound_proves_the_latch(self):
        """``i < n`` with ``n`` loaded: the load is bounded by its type
        alone, so ``i`` stays below the maximum in the body and
        ``i + 1`` cannot overflow."""
        tree, source = machine_pair(r"""
            long A[8];
            long top = 9223372036854775807;
            int main(void) {
                long n = top;
                for (long i = 9223372036854775800; i < n; i++)
                    A[i - 9223372036854775800] = i + 1;
                for (int i = 0; i < 7; i++) print_i64(A[i]);
                return 0;
            }""")
        same_run(tree, source)
        assert source.stdout[-1] == "9223372036854775807"
        assert not self.WRAP.search(main_source(source))

    def test_long_adjacent_chain_stops_folding_at_the_cap(self):
        """Folds nest up to ``_FOLD_DEPTH``; past it a value keeps its
        register, so the emitted function still parses."""
        tree, source = machine_pair(r"""
            double A[4];
            double B[4];
            int main(void) {
                for (int i = 0; i < 4; i++) A[i] = i;
                for (int i = 0; i < 4; i++) B[i] = %s;
                for (int i = 0; i < 4; i++) print_f64(B[i]);
                return 0;
            }""" % CHAIN)
        same_run(tree, source)
        text = main_source(source)
        deepest = depth = 0
        for char in text:
            depth += (char == "(") - (char == ")")
            deepest = max(deepest, depth)
        assert 16 <= deepest <= 40

    def test_compare_feeding_a_branch_is_its_condition(self):
        tree, source = machine_pair(TestSlotPromotion.COUNTER)
        same_run(tree, source)
        text = main_source(source)
        assert "if s1 < 6:" in text
        assert "+(" not in text and not self.SLOT_COPY.search(text)

    def test_gemm_inner_loop_has_no_wrap_or_slot_copy(self):
        """The ``k`` loop of the ``multiply`` kernel gemm, 2mm and 3mm
        share: its bounds are constants, so ``k + 1`` needs no wrap,
        and every slot load reads the slot in place.  The launch
        proves the body's loads in bounds, so none can fault: the loop
        is one ``for`` over ``range``, nested in the ``j`` loop's, and
        all its trips pay one charge, after it, in the ``j`` body.  No
        block of the kernel keeps a dispatch arm."""
        code, (ahead, body, after) = gemm_k_loop()
        for text in (ahead, body, after):
            assert not self.WRAP.search(text)
            assert not self.SLOT_COPY.search(text)
        assert re.search(r"^ *_r1 = range\(s\d+, 32\)$", ahead, re.M)
        for token in ("_go", "_ei", "_b =", "continue", "_o =", "+("):
            assert token not in body
        assert not re.search(r"_ld\d+\(", body)
        assert after.count("_go += ") == after.count("_ei += ") == 1
        assert "* _t1 + " in after
        assert code.for_loops == 2 and "_b = " not in code.source


def ladder(depth: int) -> str:
    """A program whose ``f`` nests ``depth`` diamonds, each in the
    taken arm of the one before it."""
    body = "s = s + 1000;"
    for k in reversed(range(depth)):
        body = f"if (x > {k}) {{ s = s + {k}; {body} }} " \
            "else { s = s - 1; }"
    return f"""
        long f(long x) {{ long s = 0; {body} return s; }}
        int main(void) {{
            print_i64(f(-1));
            print_i64(f(7));
            print_i64(f({depth // 2}));
            print_i64(f({depth}));
            return 0;
        }}"""


class TestFusionNesting:
    """A fused diamond nests its taken arm at most ``_NEST_DEPTH``
    deep; past that the arm keeps a dispatch index, so a long ladder
    stays within the parser's indentation limit (uncapped, 120
    diamonds raise ``IndentationError``) and a short one still
    nests."""

    @pytest.mark.parametrize("depth", (30, 120, 200))
    def test_ladder_matches_the_tree_walker(self, depth):
        tree, source = machine_pair(ladder(depth))
        same_run(tree, source)
        fn = source.module.get_function("f")
        text = compile_function_source(source, fn, "cpu", False).source
        deepest = max((len(line) - len(line.lstrip())) // 4
                      for line in text.splitlines())
        nested = min(depth, _NEST_DEPTH)
        # ``f``'s body sits under ``def``, ``while`` and a dispatch arm.
        assert nested < deepest <= nested + 4


def gemm_k_loop():
    """The unhooked grid variant of gemm's ``multiply`` kernel and its
    ``k`` loop's parts (see ``for_loop_parts``)."""
    from repro.workloads import get_workload
    compiler = CgcmCompiler(CgcmConfig())
    report = compiler.compile_source(get_workload("gemm").source, "gemm")
    machine = Machine(report.module, engine="source")
    kernel = next(k for k in report.doall_kernels
                  if k.name.startswith("multiply"))
    code = compile_function_source(machine, kernel, "gpu", False, grid=True)
    return code, for_loop_parts(code.source)


#: The header of a counted loop run as ``for``, with its streams.
FOR_HEAD = re.compile(r"^ *for s\d+(?:, _x\d+)* in "
                      r"(?:_r\d*|zip\(_r\d*, .*\)):$", re.M)


def indentation(line: str) -> int:
    return len(line) - len(line.lstrip())


def for_loop_parts(source: str, which: int = -1):
    """One ``for`` loop of ``source`` (by default the last, which is
    the innermost of a nest), split at it: the lines of its enclosing
    block ahead of the loop, its body, and the lines after it, to the
    jump or break that leaves the block or to the block's end."""
    lines = source.splitlines()
    start = [k for k, line in enumerate(lines)
             if FOR_HEAD.match(line)][which]
    depth = indentation(lines[start])
    first = start
    while indentation(lines[first - 1]) >= depth:
        first -= 1
    end = start + 1
    while indentation(lines[end]) > depth:
        end += 1
    leave = end
    while indentation(lines[leave]) >= depth:
        leave += 1
        if indentation(lines[leave - 1]) == depth \
                and lines[leave - 1].strip() in ("continue", "break"):
            break
    return ("\n".join(lines[first:start]),
            "\n".join(lines[start + 1:end]),
            "\n".join(lines[end:leave]))


class TestGpuRestrictions:
    def test_kernel_pointer_store_rejected(self):
        module = compile_minic(r"""
            long G[4];
            long *P[4];
            __global__ void bad(long tid, long **p, long *g) {
                p[tid] = g;
            }
            int main(void) {
                long **dp = (long **) map((char *) P);
                long *dg = (long *) map((char *) G);
                __launch(bad, 1, dp, dg);
                return 0;
            }
        """)
        machine = Machine(module, engine="source")
        CgcmRuntime(machine).declare_all_globals()
        with pytest.raises(CgcmUnsupportedError, match="pointer into"):
            machine.run()


class TestGridVariant:
    """The source engine runs each launch as one generated grid
    function, with the tree-walker's results, clocks and counters."""

    #: Thread ``tid`` loops ``tid + 1`` times, so the slowest thread's
    #: ops differ from the mean.
    TRIANGULAR = r"""
        double out[16];
        __global__ void tri(long tid, double *o) {
            double acc = 0.0;
            for (long k = 0; k <= tid; k++) acc += 1.0 / (k + 1);
            o[tid] = acc;
        }
        int main(void) {
            double *d = (double *) map((char *) out);
            __launch(tri, 16, d);
            __launch(tri, 0, d);
            unmap((char *) out);
            release((char *) out);
            print_f64(out[15]);
            return 0;
        }
    """

    PROGRAMS = {
        "triangular": TRIANGULAR,
        # The callee has locals of its own: its frames take ids
        # between the threads', and its ops count toward its thread.
        "device_call": r"""
            double out[12];
            double weigh(double x, long n) {
                double s = 0.0;
                for (long j = 0; j < n; j++) s += x / (j + 1);
                return s;
            }
            __global__ void tri(long tid, double *o) {
                double acc = 0.0;
                for (long k = 0; k <= tid; k++)
                    acc += weigh(k, tid % 3 + 1);
                o[tid] = acc;
            }
            int main(void) {
                double *d = (double *) map((char *) out);
                __launch(tri, 12, d);
                unmap((char *) out);
                release((char *) out);
                print_f64(out[11]);
                return 0;
            }
        """,
        # A launch inside a thread resets the op count mid-grid.
        "nested_launch": r"""
            long hits[4];
            __global__ void inner(long tid, long *h) { h[tid] = h[tid] + 1; }
            __global__ void outer(long tid, long *h) {
                long n = tid + 1;
                __launch(inner, n, h);
            }
            int main(void) {
                long *d = (long *) map((char *) hits);
                __launch(outer, 3, d);
                unmap((char *) hits);
                release((char *) hits);
                print_i64(hits[0] + hits[1] * 10 + hits[2] * 100);
                return 0;
            }
        """,
    }

    @staticmethod
    def observe(program: str, engine: str, hook=None):
        """Run ``program`` with the runtime; the machine and what the
        engines must agree on."""
        machine = Machine(compile_minic(program), engine=engine)
        CgcmRuntime(machine).declare_all_globals()
        launches = []
        machine.launch_cost_hooks.append(
            lambda m, name, grid, total, peak, duration:
            launches.append((name, grid, total, peak)))
        if hook is not None:
            machine.mem_hooks.append(hook)
        assert machine.run() == 0
        return machine, (machine.stdout, machine.clock.totals(),
                         machine.executed_instructions,
                         machine._frame_counter, launches)

    def test_launch_compiles_only_the_grid_variant(self):
        machine, _ = self.observe(self.TRIANGULAR, "source")
        kernel = machine.module.get_function("tri")
        codes = [code for code in machine._compiled.values()
                 if code.function is kernel]
        assert codes and all(code.grid for code in codes)
        assert "in range(grid)" in codes[0].source

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_matches_the_tree_walker(self, name):
        _, tree = self.observe(self.PROGRAMS[name], "tree")
        _, source = self.observe(self.PROGRAMS[name], "source")
        assert source == tree
        if name == "triangular":
            _, _, total, peak = tree[-1][0]
            assert peak * 16 != total

    @pytest.mark.parametrize("name", ("triangular", "device_call"))
    def test_hooked_launch_logs_the_tree_walker_events(self, name):
        logs = {}
        for engine in ("tree", "source"):
            log = []
            machine, observed = self.observe(
                self.PROGRAMS[name], engine,
                lambda m, kind, address, size, log=log:
                log.append((m.mode, kind, address, size)))
            logs[engine] = (log, observed)
        assert logs["source"] == logs["tree"]
        assert any(mode == "gpu" for mode, *_ in logs["tree"][0])
        kernel = machine.module.get_function("tri")
        assert all(code.hooked and code.grid
                   for code in machine._compiled.values()
                   if code.function is kernel)

    #: Thread 3 divides by zero after its allocas moved the stack
    #: pointer: in the kernel itself, or in a defined callee.
    FAULTING = r"""
        long out[8];
        long divide(long a, long b) { long q = a / b; return q; }
        __global__ void crash(long tid, long *o) {
            long acc = 0;
            for (long k = 0; k < 4; k++) acc += 100 / (k + 3 - tid);
            o[tid] = acc;
        }
        __global__ void crash_in_call(long tid, long *o) {
            long acc = 0;
            for (long k = 0; k < 4; k++) acc += divide(100, k + 3 - tid);
            o[tid] = acc;
        }
        int main(void) { return 0; }
    """

    #: (executed_instructions, frame counter) after the fault.  Fused
    #: code counts a segment's instructions when it starts, so it reads
    #: 3 more than the tree-walker (268 and 421): the granularity is
    #: the segment, and a charge carried past a fault-free segment
    #: lands before anything that can fault.
    AFTER_FAULT = {"crash": (271, 4), "crash_in_call": (424, 17)}

    @pytest.mark.parametrize("kernel", ("crash", "crash_in_call"))
    def test_fault_in_a_middle_thread_restores_launch_state(self, kernel):
        after = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(self.FAULTING), engine=engine)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            device = runtime.map_ptr(machine.global_address("out"))

            def state():
                return (machine._gpu_sp, machine._gpu_ops, machine._depth,
                        machine.mode)

            before = state()
            with pytest.raises(InterpError, match="division by zero"):
                machine.launch_evaluated(
                    machine.module.get_function(kernel), 8, [device])
            assert state() == before
            after[engine] = (machine.executed_instructions,
                             machine._frame_counter)
        assert after["source"] == self.AFTER_FAULT[kernel]
        assert after["source"][1] == after["tree"][1]


class TestLaunchProofs:
    """A kernel's grid variant proves at launch that its affine
    accesses stay inside one segment's allocated bytes and indexes
    each as one typed view; a launch whose proof fails runs the
    checked grid variant.  Either way every run matches the
    tree-walker, launch by launch."""

    #: A proven access: one segment view indexed in element units.
    PROVEN = re.compile(r"_ls\d+\.v[bhiqQfd]\[")
    #: A checked access's slow-path helper call.
    SLOW_PATH = re.compile(r"_(ld|st)\d+\(")

    #: ``j < tid``: the thread id bounds the inner loop.
    TRIANGULAR = r"""
        double X[24];
        double S[24];
        __global__ void prefix(long tid, double *x, double *s) {
            double acc = 0.0;
            for (long j = 0; j < tid; j++) acc += x[j];
            s[tid] = acc;
        }
        int main(void) {
            for (int i = 0; i < 24; i++) X[i] = i * 0.5;
            double *dx = (double *) map((char *) X);
            double *ds = (double *) map((char *) S);
            __launch(prefix, 24, dx, ds);
            unmap((char *) S);
            release((char *) S);
            release((char *) X);
            print_f64(S[23]);
            return 0;
        }
    """

    PROVEN_SHAPES = {
        "triangular": TRIANGULAR,
        # The stored value is bounded, by ``% 200``, but not inside
        # the char range: the store keeps its i8 wrap.
        "reversed_char": r"""
            char C[64];
            __global__ void rev(long tid, char *c) {
                c[63 - tid] = (tid * 7) % 200;
            }
            int main(void) {
                char *d = (char *) map((char *) C);
                __launch(rev, 64, d);
                unmap((char *) C);
                release((char *) C);
                long s = 0;
                for (int i = 0; i < 64; i++) s += C[i] * (i + 1);
                print_i64(s);
                return 0;
            }
        """,
        "heap_argument": r"""
            __global__ void scale(long tid, double *x, long n) {
                if (tid < n) x[tid] = x[tid] * 2.0 + tid;
            }
            int main(void) {
                double *h = (double *) malloc(40 * 8);
                for (int i = 0; i < 40; i++) h[i] = i;
                double *d = (double *) map((char *) h);
                __launch(scale, 40, d, 40);
                unmap((char *) h);
                release((char *) h);
                print_f64(h[39]);
                free((char *) h);
                return 0;
            }
        """,
        "struct_field": r"""
            struct cell { long tag; double mass; double speed; };
            struct cell cells[12];
            __global__ void push(long tid, struct cell *c) {
                c[tid].speed = c[tid].mass * c[tid].tag + 0.25;
            }
            int main(void) {
                for (int i = 0; i < 12; i++) {
                    cells[i].tag = i;
                    cells[i].mass = 1.5 * i;
                }
                struct cell *d = (struct cell *) map((char *) cells);
                __launch(push, 12, d);
                unmap((char *) cells);
                release((char *) cells);
                print_f64(cells[11].speed);
                return 0;
            }
        """,
    }

    #: One launch of each fails its proof.
    FALLBACKS = {
        # ``A`` is the first global, at its segment's base: the
        # guarded ``a[i - 1]`` ranges one element below the segment.
        "guarded_left": r"""
            double A[16];
            double L[16];
            __global__ void left(long i, double *a, double *l) {
                double v = 0.0;
                if (i > 0) v = a[i - 1];
                l[i] = v;
            }
            int main(void) {
                for (int i = 0; i < 16; i++) A[i] = i * 1.5;
                double *da = (double *) map((char *) A);
                double *dl = (double *) map((char *) L);
                __launch(left, 16, da, dl);
                unmap((char *) L);
                release((char *) L);
                release((char *) A);
                print_f64(L[15]);
                return 0;
            }
        """,
        # ``k + tid`` leaves the 64-bit range at the second launch;
        # ``i - k`` wraps back to the thread id.
        "wrapping_index": r"""
            long O[4];
            __global__ void shift(long tid, long *o, long k) {
                long i = k + tid;
                o[i - k] = i;
            }
            int main(void) {
                long *d = (long *) map((char *) O);
                __launch(shift, 4, d, 5);
                __launch(shift, 4, d, 9223372036854775806);
                unmap((char *) O);
                release((char *) O);
                for (int t = 0; t < 4; t++) print_i64(O[t]);
                return 0;
            }
        """,
        "misaligned_argument": r"""
            long O[8];
            __global__ void fill(long tid, long *o) { o[tid] = tid * 3; }
            int main(void) {
                long *d = (long *) map((char *) O);
                __launch(fill, 4, d);
                __launch(fill, 4, (long *) ((char *) d + 4));
                unmap((char *) O);
                release((char *) O);
                for (int t = 0; t < 8; t++) print_i64(O[t]);
                return 0;
            }
        """,
    }

    @staticmethod
    def run_both(program: str, monkeypatch, hook=None):
        """Run ``program`` on both engines, assert that they agree and
        that the source engine tree-walked nothing; its machine."""
        _, tree = TestGridVariant.observe(program, "tree", hook)
        walked = []
        execute = Machine._execute

        def tracking(machine, frame):
            walked.append(frame.function.name)
            return execute(machine, frame)

        monkeypatch.setattr(Machine, "_execute", tracking)
        machine, source = TestGridVariant.observe(program, "source", hook)
        assert source == tree
        assert walked == []
        return machine

    @staticmethod
    def kernel_codes(machine):
        return {code.grid: code for code in machine._compiled.values()
                if code.grid}

    def test_gemm_multiply_indexes_its_segments(self):
        """The ``k`` loop streams A's row and B's column from slices of
        segment views that ``zip`` walks with its slot, and reads
        ``alpha`` once, ahead of it, under its trip test: its body is
        one statement.  The views are bound ahead of the ``j`` loop
        and dropped after it; each index sum is bound ahead of the
        loop whose slots it reads.  No offset test, no slow path, no
        charge in the loop.  The unstored latch increment of the
        outlined loop is not emitted."""
        code, (ahead, body, after) = gemm_k_loop()
        assert body.strip() == "s2 = (s2 + ((_h0 * _x0) * _x1))"
        (head,) = [line.strip() for line in code.source.splitlines()
                   if line.strip().startswith("for s3")]
        assert re.fullmatch(
            r"for s3, _x0, _x1 in zip\(_r1, "
            r"(_ls\d+vd)\[s3 \+ (_i\d+):32 \+ \2\], "
            r"(_ls\d+vd)\[s3 \* 32 \+ (_i\d+):1024 \+ \4:32\]\):", head)
        assert re.search(r"^ *_h0 = _ls\d+vd\[_lj\d+\] if _r1 else 0$",
                         ahead, re.M)
        assert re.search(r"^ *_i\d+ = s1 \+ _lj\d+$", ahead, re.M)
        views = re.findall(r"^ *(_ls\d+v[bhiqQfd]) = _ls\d+\.v\w$",
                           code.source, re.M)
        assert len(views) == 5
        assert f"del {', '.join(views)}" in code.source
        assert re.search(r"^ *_i\d+ = s0 \* 32 \+ _lj\d+$", code.source,
                         re.M)
        assert "_o =" not in code.source
        assert not self.SLOW_PATH.search(code.source)
        assert "_go" not in body and after.count("_go += ") == 1
        assert code.proven_sites == code.access_sites == 6
        assert code.streamed_loads == 3
        assert "s0 + 1" not in code.source

    @pytest.mark.parametrize("name", sorted(PROVEN_SHAPES))
    def test_proven_shapes(self, name, monkeypatch):
        machine = self.run_both(self.PROVEN_SHAPES[name], monkeypatch)
        assert machine.checked_launches == 0
        (code,) = self.kernel_codes(machine).values()
        assert code.grid is True
        assert code.proven_sites == code.access_sites > 0
        assert not self.SLOW_PATH.search(code.source)
        if name == "reversed_char":
            assert ".vb[" in code.source and "& 255" in code.source
        elif name == "struct_field":
            assert ".vq[" in code.source and ".vd[" in code.source
        elif name == "heap_argument":
            assert "_cover(a1" in code.source

    @pytest.mark.parametrize("name", sorted(FALLBACKS))
    def test_failed_proofs_run_the_checked_variant(self, name, monkeypatch):
        machine = self.run_both(self.FALLBACKS[name], monkeypatch)
        assert machine.checked_launches == 1
        codes = self.kernel_codes(machine)
        assert set(codes) == {True, CHECKED}
        assert codes[True].proven_sites > 0
        assert codes[CHECKED].proven_sites == 0
        assert "_cover" not in codes[CHECKED].source

    def test_signed_dividend_adds_no_condition(self, monkeypatch):
        """``k + tid`` may be negative, so its div and rem keep C
        truncation rather than ask the launch for ``k >= 0``: a
        negative ``k`` still runs the proven variant."""
        machine = self.run_both(r"""
            long O[8];
            __global__ void split(long tid, long *o, long k) {
                o[tid] = (k + tid) % 4 * 10 + (k + tid) / 4;
            }
            int main(void) {
                long *d = (long *) map((char *) O);
                __launch(split, 8, d, -6);
                unmap((char *) O);
                release((char *) O);
                for (int t = 0; t < 8; t++) print_i64(O[t]);
                return 0;
            }
        """, monkeypatch)
        assert machine.stdout[:3] == ["-21", "-11", "-1"]
        assert machine.checked_launches == 0
        (code,) = self.kernel_codes(machine).values()
        assert code.proven_sites == 1 and code.source.count("_tdi(") == 2

    def test_conditions_hold_for_ordinary_launches(self, monkeypatch):
        """``x[tid] + k`` fits its type only where ``k`` cancels the
        loaded value's range, and a char store of an int expression
        truncates by design: neither becomes a launch condition, so
        each keeps its wrap and the launch stays proven."""
        machine = self.run_both(r"""
            long X[16];
            char C[16];
            long O[16];
            __global__ void mix(long tid, long *x, char *c, long *o,
                                long k) {
                o[tid] = x[tid] + k;
                c[tid] = x[tid] * 3 + k;
            }
            int main(void) {
                for (int i = 0; i < 16; i++) X[i] = i * 9;
                long *dx = (long *) map((char *) X);
                char *dc = (char *) map((char *) C);
                long *do_ = (long *) map((char *) O);
                __launch(mix, 16, dx, dc, do_, 7);
                unmap((char *) C);
                unmap((char *) O);
                release((char *) C);
                release((char *) O);
                release((char *) X);
                print_i64(O[15] * 1000 + C[15]);
                return 0;
            }
        """, monkeypatch)
        assert machine.stdout == ["141900"]
        assert machine.checked_launches == 0
        (code,) = self.kernel_codes(machine).values()
        assert code.proven_sites == code.access_sites == 4
        assert "& 255" in code.source
        assert "& 18446744073709551615" in code.source

    def test_hooked_launches_compile_no_proofs(self, monkeypatch):
        log = []
        machine = self.run_both(
            self.TRIANGULAR, monkeypatch,
            lambda m, kind, address, size: log.append((kind, address)))
        assert log and machine.checked_launches == 0
        (code,) = self.kernel_codes(machine).values()
        assert code.hooked and code.proven_sites == 0
        assert "_cover" not in code.source

    @pytest.mark.parametrize("kernel", ("crash", "crash_in_call"))
    def test_fault_in_a_proven_launch_keeps_its_counts(self, kernel):
        """The faulting kernels' stores are proven, and a fault in a
        middle thread still leaves ``AFTER_FAULT``."""
        machine = Machine(compile_minic(TestGridVariant.FAULTING),
                          engine="source")
        runtime = CgcmRuntime(machine)
        runtime.declare_all_globals()
        device = runtime.map_ptr(machine.global_address("out"))
        with pytest.raises(InterpError, match="division by zero"):
            machine.launch_evaluated(
                machine.module.get_function(kernel), 8, [device])
        assert (machine.executed_instructions, machine._frame_counter) \
            == TestGridVariant.AFTER_FAULT[kernel]
        (code,) = self.kernel_codes(machine).values()
        assert code.proven_sites == 1 and machine.checked_launches == 0

    @staticmethod
    def unwritten_slot(store_first_elsewhere: bool):
        """A kernel whose slot ``s`` is read before any store on some
        path: its store sits outside the entry run, or after a load
        of the slot there.  Returns (module, kernel, the load that
        can read the zero fill)."""
        module = compile_minic("long out[4]; int main(void) { return 0; }")
        kernel = module.add_function(
            "k", FunctionType(VOID, [I64, pointer_to(I64)]),
            ["tid", "out"], is_kernel=True)
        tid, out = kernel.args
        entry = kernel.new_block("entry")
        b = IRBuilder(entry)
        slot = b.alloca(I64)
        if store_first_elsewhere:
            set_, use = kernel.new_block("set"), kernel.new_block("use")
            b.cbr(b.cmp("gt", tid, 0), set_, use)
            b.position_at_end(set_)
            b.store(b.add(tid, 5), slot)
            b.br(use)
            b.position_at_end(use)
            read = b.load(slot)
        else:
            read = b.load(slot)
            b.store(b.add(tid, 5), slot)
        b.store(read, b.gep(out, [tid]))
        b.ret()
        verify_module(module)
        return module, kernel, read

    @pytest.mark.parametrize("elsewhere", (True, False),
                             ids=("outside_entry_run", "after_a_load"))
    def test_slot_read_before_its_store_keeps_zero(self, elsewhere):
        module, kernel, read = self.unwritten_slot(elsewhere)
        machine = Machine(module, engine="source")
        compiler = _SourceCompiler(machine, kernel, "gpu", False, False,
                                   grid=True)
        compiler.compile()
        assert compiler._interval(read)[0] == 0
        after = {}
        for engine in ("tree", "source"):
            module, kernel, _ = self.unwritten_slot(elsewhere)
            machine = Machine(module, engine=engine)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            device = runtime.map_ptr(machine.global_address("out"))
            machine.launch_evaluated(kernel, 4, [device])
            after[engine] = (machine.device.memory.read(device, 32),
                             machine.executed_instructions,
                             machine._frame_counter)
        assert after["source"] == after["tree"]
        expected = [0, 0, 0, 0] if not elsewhere else [0, 6, 7, 8]
        assert list(struct.unpack("<4q", after["tree"][0])) == expected

    @staticmethod
    def affine_kernel(rng) -> str:
        """A kernel whose guarded accesses index by a random affine
        mix of the thread id, a loop counter and launch arguments,
        launched three times, one argument in five near 2^63."""
        c1, c2, c3 = (rng.randint(-4, 4) for _ in range(3))
        offset = rng.choice((rng.randint(-20, 80), 300))
        kind = rng.choice(("long", "char"))
        launches = []
        for _ in range(3):
            p = rng.choice((9223372036854775800, -9223372036854775800)) \
                if rng.random() < 0.2 else rng.randint(-10, 30)
            launches.append(f"__launch(k, {rng.randint(0, 40)}, da, db, "
                            f"{p}, {p + rng.randint(-2, 12)});")
        return f"""
            {kind} A[512];
            long B[512];
            __global__ void k(long tid, {kind} *a, long *b, long p,
                              long q) {{
                for (long j = p; j < q; j++) {{
                    long i = tid * {c1} + j * {c2} + p * {c3} + {offset};
                    if (i >= 0 && i < 512) a[i] = a[i] + i * 3 + j;
                }}
                long w = tid + p;
                if (w >= 0 && w < 512) b[w] = b[w] + w * {c1};
            }}
            int main(void) {{
                {kind} *da = ({kind} *) map((char *) A);
                long *db = (long *) map((char *) B);
                {" ".join(launches)}
                unmap((char *) A);
                unmap((char *) B);
                release((char *) A);
                release((char *) B);
                long s = 0;
                for (int i = 0; i < 512; i++) s = s * 31 + A[i] + B[i] * 7;
                print_i64(s);
                return 0;
            }}
        """

    def test_random_affine_kernels_match(self, monkeypatch):
        """Seeded random kernels: launches that prove their accesses
        and launches that fail (a guard the proof does not see, a
        value leaving its type) both match the tree-walker."""
        rng = random.Random(3)
        checked = launches = 0
        for _ in range(12):
            machine = self.run_both(self.affine_kernel(rng), monkeypatch)
            checked += machine.checked_launches
            launches += machine.kernel_launch_count
            monkeypatch.undo()
        assert 0 < checked < launches

    #: Proven access sites over the grid variants the 24 workloads
    #: compile (of 370 sites in 86 variants).  The sites left checked
    #: are cfd's ``density[nb]``, ``momentum[nb]`` and ``energy[nb]``,
    #: whose index ``nb`` is loaded from ``neighbours``.
    PROVEN_FLOOR = 367

    def test_workloads_prove_their_sites(self, workload_grids):
        """Every launch of the 24 workloads passes its proof, and the
        proofs cover at least ``PROVEN_FLOOR`` sites."""
        proven = 0
        for name, checked, codes in workload_grids:
            assert checked == 0, name
            proven += sum(code.proven_sites for code in codes)
        assert proven >= self.PROVEN_FLOOR


#: The launch prologue's test of a frame of promoted slots.
FRAME_TEST = "(M._gpu_sp + 7 & -8) + "


class TestCountedLoops:
    """In a kernel's proven grid variant an innermost counted loop that
    cannot fault runs as ``for`` over ``range`` with one batched
    charge, and a frame of promoted slots is tested once per launch.
    Every run matches the tree-walker, launch by launch."""

    #: Kernels whose loop -- the inner one of ``nested`` -- is a ``for``.
    LOOPS = {
        "lt_step_1": r"""
            double X[16];
            double S[16];
            __global__ void dot(long tid, double *x, double *s) {
                double acc = 0.0;
                for (long j = 0; j < 16; j++) acc += x[j] * (j + tid);
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 16; i++) X[i] = i * 0.25;
                double *dx = (double *) map((char *) X);
                double *ds = (double *) map((char *) S);
                __launch(dot, 16, dx, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) X);
                print_f64(S[15]);
                return 0;
            }
        """,
        "le_step_3": r"""
            long X[32];
            long S[32];
            __global__ void hop(long tid, long *x, long *s) {
                long acc = 0;
                for (long j = tid; j <= 31; j += 3) acc += x[j] * 2 + j;
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 32; i++) X[i] = i * i;
                long *dx = (long *) map((char *) X);
                long *ds = (long *) map((char *) S);
                __launch(hop, 32, dx, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) X);
                print_i64(S[0] * 100000 + S[31] * 1000 + S[5]);
                return 0;
            }
        """,
        # Threads 4 to 7 of the first launch and every thread of the
        # second run no trip.
        "zero_trips": r"""
            long S[8];
            __global__ void tail(long tid, long *s, long n) {
                long acc = tid;
                for (long j = tid; j < n; j++) acc += j;
                s[tid] = s[tid] * 100 + acc;
            }
            int main(void) {
                long *ds = (long *) map((char *) S);
                __launch(tail, 8, ds, 4);
                __launch(tail, 8, ds, 0);
                unmap((char *) S);
                release((char *) S);
                for (int t = 0; t < 8; t++) print_i64(S[t]);
                return 0;
            }
        """,
        "argument_end": r"""
            double X[64];
            double S[8];
            __global__ void span(long tid, double *x, double *s, long lo,
                                 long hi) {
                double acc = 0.0;
                for (long j = lo; j < hi; j += 2) acc += x[j] + tid;
                s[tid] = s[tid] + acc;
            }
            int main(void) {
                for (int i = 0; i < 64; i++) X[i] = i * 1.5;
                double *dx = (double *) map((char *) X);
                double *ds = (double *) map((char *) S);
                __launch(span, 8, dx, ds, 0, 64);
                __launch(span, 8, dx, ds, 5, 40);
                __launch(span, 8, dx, ds, 30, 30);
                unmap((char *) S);
                release((char *) S);
                release((char *) X);
                print_f64(S[7]);
                return 0;
            }
        """,
        # The end is a slot loaded in the header; some are negative.
        "loaded_end": r"""
            long N[8];
            long S[8];
            __global__ void tri(long tid, long *n, long *s) {
                long m = n[tid];
                long acc = 0;
                for (long j = 0; j < m; j++) acc += j * j + tid;
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 8; i++) N[i] = i * 3 - 4;
                long *dn = (long *) map((char *) N);
                long *ds = (long *) map((char *) S);
                __launch(tri, 8, dn, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) N);
                for (int t = 0; t < 8; t++) print_i64(S[t]);
                return 0;
            }
        """,
        # The slot's exit value is read after the loop.
        "read_after": r"""
            long S[8];
            __global__ void last(long tid, long *s, long n) {
                long j = 100;
                for (j = tid; j <= n; j += 3) s[tid] = s[tid] + j;
                s[tid] = s[tid] * 1000 + j;
            }
            int main(void) {
                long *ds = (long *) map((char *) S);
                __launch(last, 8, ds, 10);
                __launch(last, 8, ds, -1);
                unmap((char *) S);
                release((char *) S);
                for (int t = 0; t < 8; t++) print_i64(S[t]);
                return 0;
            }
        """,
        "nested": r"""
            double A[64];
            double S[8];
            __global__ void rows(long tid, double *a, double *s) {
                double acc = 0.0;
                for (long i = 0; i < 8; i++)
                    for (long j = 0; j <= i; j++) acc += a[i * 8 + j] * tid;
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 64; i++) A[i] = i * 0.5;
                double *da = (double *) map((char *) A);
                double *ds = (double *) map((char *) S);
                __launch(rows, 8, da, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) A);
                print_f64(S[7]);
                return 0;
            }
        """,
    }

    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_loop_runs_as_a_for(self, name, monkeypatch):
        machine = TestLaunchProofs.run_both(self.LOOPS[name], monkeypatch)
        assert machine.checked_launches == 0
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        loops = 2 if name == "nested" else 1
        assert code.for_loops == len(FOR_HEAD.findall(code.source)) == loops
        ahead, body, after = for_loop_parts(code.source, 0)
        assert "_r = range(" in ahead
        assert "_b =" not in body and "continue" not in body
        assert after.count("_go += ") == 1 and "* _t + " in after
        _, inner, _ = for_loop_parts(code.source)
        for token in ("_go", "_ei"):
            assert token not in inner
        assert FRAME_TEST in code.source and "_sp = " not in code.source

    def test_checked_site_grows_a_segment_after_the_loop(self, monkeypatch):
        """A ``for`` body reads the device heap through a view bound
        ahead of it; past the loop a checked load lands beyond the
        heap's allocated bytes, which grows the segment, as it may
        once the loop let go of the view."""
        machine = TestLaunchProofs.run_both(r"""
            __global__ void grow(long tid, double *x, double *s, long far) {
                double acc = 0.0;
                for (long j = 0; j < 8; j++) acc += x[j];
                double *p = x;
                for (long k = 0; k < 2; k++) p = p + far;
                s[tid] = acc + *p;
            }
            int main(void) {
                double *h = (double *) malloc(8 * 8);
                double *o = (double *) malloc(4 * 8);
                for (int i = 0; i < 8; i++) h[i] = i;
                double *dh = (double *) map((char *) h);
                double *dout = (double *) map((char *) o);
                __launch(grow, 4, dh, dout, 65536);
                unmap((char *) o);
                print_f64(o[3]);
                return 0;
            }
        """, monkeypatch)
        assert machine.stdout == ["28"]
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.for_loops == 2 and code.proven_sites == 2
        assert len(machine.device.memory.segment("device-heap").data) \
            > 1 << 20

    #: Thread 0 faults in trip 3 of a loop that keeps its dispatch
    #: form: ``k - d`` is 0, or ``p`` has walked below the first
    #: global, at the base of the device's module segment.
    FAULTING = r"""
        long A[8];
        long O[8];
        __global__ void divide(long tid, long *o, long d) {
            long acc = 0;
            for (long k = 0; k < 6; k++) acc += 100 / (k - d);
            o[tid] = acc;
        }
        __global__ void walk(long tid, long *o, long *a, long s) {
            long *p = a + s;
            long acc = 0;
            for (long k = 0; k < 6; k++) {
                acc += *p;
                p = p - 1;
            }
            o[tid] = acc;
        }
        int main(void) { return 0; }
    """

    #: (tree-walker, source engine) instruction counts after the
    #: fault: fused code also counts the rest of the faulting segment,
    #: the body block past the division (``acc``'s add and store, the
    #: branch) or past the load (7 instructions).
    AFTER_FAULT = {"divide": (65, 68), "walk": (76, 83)}

    @pytest.mark.parametrize("kernel", ("divide", "walk"))
    def test_faulting_body_keeps_its_dispatch(self, kernel):
        after = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(self.FAULTING), engine=engine)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            out = runtime.map_ptr(machine.global_address("O"))
            args = [out, 3] if kernel == "divide" else \
                [out, runtime.map_ptr(machine.global_address("A")), 2]
            with pytest.raises((InterpError, MemoryFault)) as fault:
                machine.launch_evaluated(
                    machine.module.get_function(kernel), 4, args)
            after[engine] = (type(fault.value), str(fault.value),
                             machine.clock.totals(), machine._frame_counter,
                             machine._gpu_sp, machine.executed_instructions)
        assert after["source"][:-1] == after["tree"][:-1]
        assert (after["tree"][-1], after["source"][-1]) \
            == self.AFTER_FAULT[kernel]
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.grid is True and code.for_loops == 0
        assert "_r = range(" not in code.source
        assert machine.checked_launches == 0

    @staticmethod
    def counted_kernel(rng) -> str:
        """A kernel whose counted loop, alone or inside one or two more
        (one time in two), has a random start, end, test and step,
        indexes two arrays by a non-negative affine mix modulo their
        length and a 2-D global by its slot, which it reads before and
        after storing it, and is launched three times."""
        start = rng.choice(("0", "tid", "p", "tid % 3"))
        end = rng.choice(("24", "q", "tid + 5", "m", "i + 2"))
        test = rng.choice(("<", "<="))
        step = rng.choice((1, 2, 3))
        c1, c2, c3 = (rng.randint(0, 5) for _ in range(3))
        kind = rng.choice(("long", "double"))
        depth = rng.choice((1, 1, 2, 3))
        if end == "i + 2":
            depth = max(depth, 2)
        row = "tid % 4" if depth == 1 else "i"
        loop = (f"for (j = {start}; j {test} {end}; j += {step}) {{"
                f" acc = acc + C[{row}][j] * {c2};"
                f" a[(j * {c1} + tid * {c2} + {c3}) % 64] ="
                f" a[(j * {c1} + tid * {c2} + {c3}) % 64] + j + p;"
                f" acc = acc + b[(j + tid) % 32] * {c1};"
                f" C[{row}][j] = C[{row}][j] + j;"
                f" acc = acc + C[{row}][j]; }}")
        if depth > 1:
            loop = f"for (long i = 0; i < 3; i++) {{ {loop} }}"
        if depth > 2:
            loop = f"for (long h = p; h <= 2; h++) {{ acc = acc + h; {loop} }}"
        launches = " ".join(
            f"__launch(k, {rng.randint(0, 12)}, da, db, dn, "
            f"{rng.randint(0, 10)}, {rng.randint(-3, 30)});"
            for _ in range(3))
        return f"""
            {kind} A[64];
            long B[32];
            long N[16];
            long C[4][64];
            __global__ void k(long tid, {kind} *a, long *b, long *n,
                              long p, long q) {{
                long m = n[tid % 16];
                long acc = 0;
                long j = -1;
                {loop}
                b[tid % 32] = b[tid % 32] + acc * 7 + j;
            }}
            int main(void) {{
                for (int i = 0; i < 32; i++) B[i] = i * 3;
                for (int i = 0; i < 16; i++) N[i] = i * 5 - 20;
                for (int i = 0; i < 4; i++)
                    for (int j = 0; j < 64; j++) C[i][j] = i * 64 + j;
                {kind} *da = ({kind} *) map((char *) A);
                long *db = (long *) map((char *) B);
                long *dn = (long *) map((char *) N);
                map((char *) C);
                {launches}
                unmap((char *) A);
                unmap((char *) B);
                unmap((char *) C);
                release((char *) A);
                release((char *) B);
                release((char *) N);
                release((char *) C);
                long s = 0;
                for (int i = 0; i < 64; i++) s = s * 31 + A[i];
                for (int i = 0; i < 32; i++) s = s * 31 + B[i];
                for (int i = 0; i < 4; i++)
                    for (int j = 0; j < 64; j++) s = s * 31 + C[i][j];
                print_i64(s);
                return 0;
            }}
        """

    def test_random_counted_loops_match(self, monkeypatch):
        """Seeded random counted loops and nests of them, run as
        ``for`` with streams or, where a launch fails its proof, in
        the checked variant's dispatch form, all match the
        tree-walker."""
        rng = random.Random(5)
        loops = nested = streamed = checked = 0
        for _ in range(16):
            machine = TestLaunchProofs.run_both(self.counted_kernel(rng),
                                                monkeypatch)
            for code in TestLaunchProofs.kernel_codes(machine).values():
                loops += code.for_loops
                nested += len(re.findall(r"^ *_r\d+ = range\(",
                                         code.source, re.M))
                streamed += code.streamed_loads
            checked += machine.checked_launches
            monkeypatch.undo()
        assert loops >= 8 and nested >= 4 and streamed >= 8 and checked > 0

    #: Loops emitted as ``for``, those nested in another ``for``, the
    #: loads they stream, and the variants whose launch tests their
    #: frame, over the 86 grid variants the 24 workloads compile.
    FOR_FLOOR = 71
    NESTED_FLOOR = 10
    STREAMED_FLOOR = 68
    FRAMED_FLOOR = 83

    def test_workloads_run_for_loops(self, workload_grids):
        codes = [code for _, _, codes in workload_grids for code in codes]
        assert sum(code.for_loops for code in codes) >= self.FOR_FLOOR
        assert sum(len(re.findall(r"^ *_r\d+ = range\(", code.source, re.M))
                   for code in codes) >= self.NESTED_FLOOR
        assert sum(code.streamed_loads for code in codes) \
            >= self.STREAMED_FLOOR
        assert sum(FRAME_TEST in code.source for code in codes) \
            >= self.FRAMED_FLOOR

    #: ``sum``'s frame: the slots of ``tid``, ``o``, ``acc`` and ``k``.
    FRAMED = r"""
        long O[8];
        __global__ void sum(long tid, long *o) {
            long acc = 0;
            for (long k = 0; k <= tid; k++) acc += k;
            o[tid] = acc;
        }
        int main(void) { return 0; }
    """

    def test_overflowing_frame_runs_the_checked_variant(self):
        """With the device stack pointer 32 bytes below the limit the
        frame fits; 24 bytes below, the launch fails its frame test and
        the checked variant faults at the third slot, as the
        tree-walker does."""
        after = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(self.FRAMED), engine=engine)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            out = runtime.map_ptr(machine.global_address("O"))
            kernel = machine.module.get_function("sum")
            limit = machine.device.memory.segment("device-stack").limit
            machine._gpu_sp = limit - 32
            machine.launch_evaluated(kernel, 8, [out])
            assert machine.checked_launches == 0
            machine._gpu_sp = limit - 24
            with pytest.raises(MemoryFault, match="device-stack overflow") \
                    as fault:
                machine.launch_evaluated(kernel, 8, [out])
            after[engine] = (str(fault.value), machine.clock.totals(),
                             machine._frame_counter, machine._gpu_sp,
                             machine.device.memory.read(out, 64))
        assert after["source"] == after["tree"]
        assert f"8 bytes at {limit:#x}" in after["tree"][0]
        assert machine.checked_launches == 1
        codes = TestLaunchProofs.kernel_codes(machine)
        assert set(codes) == {True, CHECKED}
        assert f"{FRAME_TEST}32 > " in codes[True].source
        assert f"if _sp > {limit}:" in codes[CHECKED].source


class TestStreams:
    """In a ``for`` body, a proven load that steps with the loop's slot
    reads a slice that ``zip`` walks with the slot, unless a memory
    store comes earlier in the trip; a load that holds still is read
    once, ahead of a loop that stores no memory; and counted loops
    nest as ``for``.  Globals indexed by slots directly make the slot
    a GEP term.  Every run matches the tree-walker, launch by launch."""

    #: An indexed (not sliced) read or write of a bound view.
    INDEXED = re.compile(r"_ls\d+vd\[[^]:]+\]")

    @staticmethod
    def codes(program: str, monkeypatch):
        """Run ``program`` on both engines; its kernels' grid variants
        by name, and the source-engine machine."""
        machine = TestLaunchProofs.run_both(program, monkeypatch)
        assert machine.checked_launches == 0
        return {code.function.name: code
                for code in machine._compiled.values() if code.grid}, machine

    @staticmethod
    def heads(source: str):
        return [line.strip() for line in source.splitlines()
                if FOR_HEAD.match(line)]

    def test_load_after_a_store_in_the_trip_stays_indexed(self, monkeypatch):
        """``A[tid][j]`` is read, stored, then read again: the first
        read streams, the second reads the stored value through the
        view, as a slice's iterator read the element before the
        store."""
        codes, machine = self.codes(r"""
            double A[8][8];
            double S[8];
            __global__ void bump(long tid, double *s) {
                double acc = 0.0;
                for (long j = 0; j < 8; j++) {
                    A[tid][j] = A[tid][j] + 1.5;
                    acc += A[tid][j];
                }
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++) A[i][j] = i * 8 + j;
                map((char *) A);
                double *ds = (double *) map((char *) S);
                __launch(bump, 8, ds);
                unmap((char *) A);
                unmap((char *) S);
                release((char *) A);
                release((char *) S);
                print_f64(S[7]);
                print_f64(A[7][7]);
                return 0;
            }
        """, monkeypatch)
        assert machine.stdout == ["488", "64.5"]
        code = codes["bump"]
        assert code.for_loops == 1 and code.streamed_loads == 1
        (head,) = self.heads(code.source)
        assert head.startswith("for s") and ", _x0 in zip(_r, " in head
        _, body, _ = for_loop_parts(code.source)
        store, read = body.strip().splitlines()
        assert "_x0" in store and self.INDEXED.search(read)

    def test_load_after_an_inner_store_stays_indexed(self, monkeypatch):
        """The inner loop stores ``A[tid][j]``; the outer body then
        reads ``A[tid][i]``, which that store may have written in this
        outer trip, so it reads through the view.  The inner loop's
        read, ahead of its store, streams."""
        codes, machine = self.codes(r"""
            double A[8][8];
            double S[8];
            __global__ void sweep(long tid, double *s) {
                double acc = 0.0;
                for (long i = 0; i < 8; i++) {
                    for (long j = 0; j < 8; j++) A[tid][j] = A[tid][j] + i;
                    acc += A[tid][i];
                }
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++) A[i][j] = i - j;
                map((char *) A);
                double *ds = (double *) map((char *) S);
                __launch(sweep, 8, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) A);
                print_f64(S[3]);
                return 0;
            }
        """, monkeypatch)
        assert machine.stdout == ["80"]
        code = codes["sweep"]
        assert code.for_loops == 2 and code.streamed_loads == 1
        outer, inner = self.heads(code.source)
        assert re.fullmatch(r"for s\d+ in _r:", outer)
        assert "zip(_r1, " in inner
        _, body, _ = for_loop_parts(code.source, 0)
        assert self.INDEXED.search(body.strip().splitlines()[-1])

    def test_zero_trip_slices_are_never_read(self, monkeypatch):
        """The second launch runs no trip, and its slice stops at a
        negative index (``hi`` is -40): ``_r`` comes first in the
        ``zip``, so nothing reads the slice."""
        codes, machine = self.codes(r"""
            double A[8][8];
            double S[8];
            __global__ void span(long tid, double *s, long lo, long hi) {
                double acc = 0.0;
                for (long j = lo; j < hi; j++) acc += A[tid][j] * j;
                s[tid] = s[tid] + acc;
            }
            int main(void) {
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++) A[i][j] = i + j * 0.5;
                map((char *) A);
                double *ds = (double *) map((char *) S);
                __launch(span, 8, ds, 1, 7);
                __launch(span, 8, ds, 3, -40);
                unmap((char *) S);
                release((char *) S);
                release((char *) A);
                for (int t = 0; t < 8; t++) print_f64(S[t]);
                return 0;
            }
        """, monkeypatch)
        assert machine.kernel_launch_count == 2
        code = codes["span"]
        assert code.streamed_loads == 1
        (head,) = self.heads(code.source)
        assert re.search(r"zip\(_r, _ls\d+vd\[s\d+ \+ _i\d+:_r\.stop \+ "
                         r"_i\d+\]\)", head)

    def test_strides_shifts_and_a_backward_index(self, monkeypatch):
        """``j <= 10`` in steps of 3: a row read streams with stride 3
        and a column read with stride 36; ``j + 1`` and ``j - 1``,
        proven not to wrap, stream shifted slices; ``11 - j`` steps
        backwards and keeps its index."""
        codes, machine = self.codes(r"""
            double A[12][12];
            double S[12];
            __global__ void walk(long tid, double *s) {
                double acc = 0.0;
                for (long j = 1; j <= 10; j += 3)
                    acc += A[tid][j] + A[j][tid] * 2.0
                        + A[tid][11 - j] * 0.5 + A[tid][j + 1] * 0.25
                        + A[tid][j - 1];
                s[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 12; i++)
                    for (int j = 0; j < 12; j++) A[i][j] = i * 12 - j * j;
                map((char *) A);
                double *ds = (double *) map((char *) S);
                __launch(walk, 12, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) A);
                for (int t = 0; t < 12; t += 5) print_f64(S[t]);
                return 0;
            }
        """, monkeypatch)
        code = codes["walk"]
        assert code.streamed_loads == 4
        (head,) = self.heads(code.source)
        assert head.count(":11 + _i") == 1 and head.count(":3]") == 3
        assert re.search(r"\[s\d+ \* 12 \+ _i\d+:132 \+ _i\d+:36\]", head)
        assert re.search(r"\[s\d+ \+ 1 \+ _i\d+:12 \+ _i\d+:3\]", head)
        assert re.search(r"\[s\d+ - 1 \+ _i\d+:10 \+ _i\d+:3\]", head)
        _, body, _ = for_loop_parts(code.source)
        assert len(self.INDEXED.findall(body)) == 1

    HOISTED = r"""
        double A[8][8];
        double W[4];
        double S[8];
        __global__ void scale(long tid, double *s, long n) {
            double acc = 0.0;
            for (long j = 0; j < n; j++) acc += A[tid][j] * W[2];
            s[tid] = s[tid] + acc;
        }
        __global__ void store(long tid, double *s, long n) {
            for (long j = 0; j < n; j++) A[tid][j] = A[tid][j] * W[2];
        }
        int main(void) {
            for (int i = 0; i < 8; i++)
                for (int j = 0; j < 8; j++) A[i][j] = i * 8 + j;
            W[2] = 0.5;
            map((char *) A);
            map((char *) W);
            double *ds = (double *) map((char *) S);
            __launch(scale, 8, ds, 8);
            __launch(scale, 8, ds, 0);
            __launch(store, 8, ds, 8);
            __launch(scale, 8, ds, 5);
            unmap((char *) S);
            release((char *) S);
            release((char *) W);
            release((char *) A);
            for (int t = 0; t < 8; t += 7) print_f64(S[t]);
            return 0;
        }
    """

    def test_invariant_load_is_read_once_ahead_of_the_loop(self,
                                                          monkeypatch):
        """``W[2]`` is read once per entry to ``scale``'s loop, under
        the trip test, so an entry that runs no trip reads nothing;
        ``store``'s body stores memory, so it reads ``W[2]`` on every
        trip."""
        codes, machine = self.codes(self.HOISTED, monkeypatch)
        assert machine.stdout == ["16.5", "310.5"]
        ahead, body, _ = for_loop_parts(codes["scale"].source)
        assert re.search(r"^ *_h0 = _ls\d+vd\[2 \+ _lj\d+\] if _r else 0$",
                         ahead, re.M)
        assert body.strip() == "s3 = (s3 + (_x0 * _h0))"
        ahead, body, _ = for_loop_parts(codes["store"].source)
        assert "_h" not in ahead and "_h" not in body
        assert re.search(r"= \(_x0 \* \(_ls\d+vd\[_i\d+\]\)\)$", body)
        assert codes["scale"].streamed_loads \
            == codes["store"].streamed_loads == 1

    def test_three_deep_nest_runs_as_for(self, monkeypatch):
        """A triangular ``j`` loop inside ``i``, and a strided ``m``
        loop starting at ``j`` inside it: three nested ``for`` loops,
        each depth with its own range and trip count, and no dispatch
        left in the kernel."""
        codes, machine = self.codes(r"""
            double A[4][6][8];
            double S[4];
            __global__ void cube(long tid, double *s) {
                double acc = 0.0;
                for (long i = 0; i < 6; i++)
                    for (long j = 0; j <= i; j++)
                        for (long m = j; m < 8; m += 2)
                            acc += A[tid][i][m] * (j + 1);
                s[tid] = acc;
            }
            int main(void) {
                for (int t = 0; t < 4; t++)
                    for (int i = 0; i < 6; i++)
                        for (int m = 0; m < 8; m++)
                            A[t][i][m] = t + i * 0.5 - m * 0.25;
                map((char *) A);
                double *ds = (double *) map((char *) S);
                __launch(cube, 4, ds);
                unmap((char *) S);
                release((char *) S);
                release((char *) A);
                for (int t = 0; t < 4; t++) print_f64(S[t]);
                return 0;
            }
        """, monkeypatch)
        code = codes["cube"]
        assert code.for_loops == 3 and code.streamed_loads == 1
        assert [head.split(" in ")[1][:8] for head in self.heads(code.source)] \
            == ["_r:", "_r1:", "zip(_r2,"]
        for trips in ("* _t + ", "* _t1 + ", "* _t2 + "):
            assert code.source.count(trips) == 2
        assert "_b = " not in code.source

    def test_checked_site_grows_a_segment_after_a_nest(self, monkeypatch):
        """A nest streams the device heap through a slice of a view
        bound ahead of it; past the nest a checked load lands beyond
        the heap's allocated bytes, which grows the segment, as it may
        once the slices and views are gone."""
        codes, machine = self.codes(r"""
            __global__ void grow(long tid, double *x, double *s, long far) {
                double acc = 0.0;
                for (long i = 0; i < 2; i++)
                    for (long j = 0; j < 8; j++) acc += x[j] * i;
                double *p = x;
                for (long k = 0; k < 2; k++) p = p + far;
                s[tid] = acc + *p;
            }
            int main(void) {
                double *h = (double *) malloc(8 * 8);
                double *o = (double *) malloc(4 * 8);
                for (int i = 0; i < 8; i++) h[i] = i;
                double *dh = (double *) map((char *) h);
                double *dout = (double *) map((char *) o);
                __launch(grow, 4, dh, dout, 65536);
                unmap((char *) o);
                print_f64(o[3]);
                return 0;
            }
        """, monkeypatch)
        assert machine.stdout == ["28"]
        code = codes["grow"]
        assert code.for_loops == 3 and code.streamed_loads == 1
        assert len(machine.device.memory.segment("device-heap").data) \
            > 1 << 20

    def test_constant_math_call_folds_and_its_loop_runs_as_for(self):
        """correlation's normalizing kernel calls ``sqrt(24.0)`` on
        every trip: the call folds to its value, cannot fault, and the
        loop runs as a ``for`` streaming its three loads."""
        from repro.workloads import get_workload
        report = CgcmCompiler(CgcmConfig()).compile_source(
            get_workload("correlation").source, "correlation")
        machine = Machine(report.module, engine="source")
        kernel = next(k for k in report.doall_kernels
                      if any(isinstance(inst, Call)
                             and inst.callee.name == "sqrt"
                             and all(isinstance(arg, Constant)
                                     for arg in inst.args)
                             for inst in k.instructions()))
        code = compile_function_source(machine, kernel, "gpu", False,
                                       grid=True)
        assert code.for_loops == 1 and code.streamed_loads == 3
        (head,) = self.heads(code.source)
        assert re.match(r"for s\d+, _x0, _x1, _x2 in zip\(_r, ", head)
        assert repr(24.0 ** 0.5) in code.source
        assert not re.search(r"_p\d+\(", code.source)

    #: ``log(0.0)`` raises a domain error: the call stays, and the
    #: first thread faults in the loop's first trip.
    DOMAIN = r"""
        double O[8];
        __global__ void bad(long tid, double *o) {
            double acc = 0.0;
            for (long j = 0; j < 4; j++) acc += log(0.0) * j;
            o[tid] = acc;
        }
        int main(void) { return 0; }
    """

    def test_constant_math_call_that_raises_faults_when_it_runs(self):
        after = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(self.DOMAIN), engine=engine)
            runtime = CgcmRuntime(machine)
            runtime.declare_all_globals()
            out = runtime.map_ptr(machine.global_address("O"))
            with pytest.raises(InterpError, match="math domain error") \
                    as fault:
                machine.launch_evaluated(
                    machine.module.get_function("bad"), 4, [out])
            after[engine] = (str(fault.value), machine.clock.totals(),
                             machine._frame_counter, machine._gpu_sp)
        assert after["source"] == after["tree"]
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.for_loops == 0 and re.search(r"_p\d+\(0\.0\)",
                                                 code.source)

    def test_constant_math_call_in_host_code(self):
        tree, source = machine_pair(r"""
            int main(void) {
                double s = 0.0;
                for (int i = 0; i < 5; i++) s += sqrt(2.25) * i + pow(2.0, 3.0);
                print_f64(s);
                return 0;
            }""")
        same_run(tree, source)
        assert source.stdout == ["55"]
        text = main_source(source)
        assert "1.5" in text and "8.0" in text
        assert not re.search(r"_p\d+\(", text)


def run_launch(program: str, engine: str, kernel: str, grid: int,
               setup=None, runtime: bool = True):
    """Launch ``kernel`` of ``program`` over ``grid`` threads, its one
    operand the mapped ``double O[16]`` (0 without the runtime), after
    ``setup(machine, runtime)``; the machine and what the launch raised
    (or None)."""
    machine = Machine(compile_minic(program), engine=engine)
    cgcm, args = None, [0]
    if runtime:
        cgcm = CgcmRuntime(machine)
        cgcm.declare_all_globals()
        args = [cgcm.map_ptr(machine.global_address("O"))]
    if setup is not None:
        setup(machine, cgcm)
    try:
        machine.launch_evaluated(machine.module.get_function(kernel), grid,
                                 args)
    except Exception as error:  # noqa: BLE001 -- compared across engines
        return machine, error
    return machine, None


def raised(error) -> tuple:
    return type(error).__name__, str(error)


class TestPointerTables:
    """A kernel's proven grid variant reads each global pointer slot it
    loads once per launch, as a launch atom ``_tbK``, when every memory
    store it can run is proven, and the launch shows that none of them
    reaches a slot.  Every run matches the tree-walker, launch by
    launch."""

    #: Two heap arrays behind global pointers, read and written in a
    #: counted loop.
    TABLES = r"""
        double *xs;
        double *ys;
        __global__ void k(long tid) {
            for (long j = 0; j < 4; j++)
                ys[tid * 4 + j] = xs[tid * 4 + j] * 2.0 + ys[tid * 4 + j];
        }
        int main(void) {
            xs = (double *) malloc(64 * 8);
            ys = (double *) malloc(64 * 8);
            for (int i = 0; i < 64; i++) { xs[i] = i * 0.5; ys[i] = 1.0; }
            mapArray((char *) &xs);
            mapArray((char *) &ys);
            __launch(k, 16);
            unmapArray((char *) &ys);
            releaseArray((char *) &ys);
            releaseArray((char *) &xs);
            print_f64(ys[63]);
            return 0;
        }
    """

    @staticmethod
    def thread_body(code) -> str:
        """The emitted thread loop, after the launch prologue."""
        return code.source.split("try:", 1)[1]

    def test_tables_prove_every_site_and_the_loop_runs_as_for(
            self, monkeypatch):
        machine = TestLaunchProofs.run_both(self.TABLES, monkeypatch)
        assert machine.stdout == ["64"] and machine.checked_launches == 0
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.proven_sites == code.access_sites == 6
        assert code.for_loops == 1
        assert re.search(r"^ *_tb0 = _ls\d+\.vQ\[_lj\d+\]$", code.source,
                         re.M)
        assert re.search(r"_cover\(_tb\d, _tb\d \+ grid \* 32, ",
                         code.source)
        # The slots are read in the prologue only.
        assert ".vQ[" not in self.thread_body(code)

    #: A ``long *`` to ``xs``'s device slot: thread ``hit`` moves the
    #: table one element on, so later threads read through the new
    #: pointer.  The first launch stores into ``spare`` instead.
    SLOT_STORE = r"""
        double *xs;
        long spare[2];
        __global__ void k(long tid, long *slot, long hit) {
            xs[tid] = xs[tid] + tid;
            if (tid == hit) slot[0] = slot[0] + 8;
        }
        int main(void) {
            xs = (double *) malloc(40 * 8);
            for (int i = 0; i < 40; i++) xs[i] = i;
            long *slot = (long *) mapArray((char *) &xs);
            long *other = (long *) map((char *) spare);
            __launch(k, 16, other, 3);
            __launch(k, 16, slot, 3);
            unmap((char *) spare);
            release((char *) spare);
            unmapArray((char *) &xs);
            releaseArray((char *) &xs);
            double s = 0.0;
            for (int i = 0; i < 20; i++) s = s * 3.0 + xs[i];
            print_f64(s);
            print_i64(spare[0]);
            return 0;
        }
    """

    def test_store_onto_a_slot_runs_the_checked_variant(self, monkeypatch):
        machine = TestLaunchProofs.run_both(self.SLOT_STORE, monkeypatch)
        assert machine.checked_launches == 1
        codes = TestLaunchProofs.kernel_codes(machine)
        assert set(codes) == {True, CHECKED}
        assert "_tb0 = " in codes[True].source
        assert codes[True].proven_sites == codes[True].access_sites
        assert "_tb" not in codes[CHECKED].source

    #: ``xs[ix[tid]]``: only its type bounds the loaded index.
    LOADED_INDEX = r"""
        double *xs;
        long IX[16];
        __global__ void k(long tid, long *ix) {
            xs[ix[tid]] = xs[tid] * 2.0;
        }
        int main(void) {
            xs = (double *) malloc(16 * 8);
            for (int i = 0; i < 16; i++) { xs[i] = i; IX[i] = 15 - i; }
            long *dix = (long *) map((char *) IX);
            mapArray((char *) &xs);
            __launch(k, 8, dix);
            unmapArray((char *) &xs);
            releaseArray((char *) &xs);
            release((char *) IX);
            print_f64(xs[15] + xs[8] * 100.0);
            return 0;
        }
    """

    def test_unproven_store_keeps_per_access_table_reads(self, monkeypatch):
        machine = TestLaunchProofs.run_both(self.LOADED_INDEX, monkeypatch)
        assert machine.checked_launches == 0
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert "_tb" not in code.source
        assert re.search(r"_ls\d+\.vQ\[_lj\d+\]", self.thread_body(code))
        # xs[tid] and xs[ix[tid]]; the slot reads and ix[tid] are proven.
        assert code.access_sites - code.proven_sites == 2

    #: ``xs`` never points anywhere.
    NULL_TABLE = r"""
        double *xs;
        double O[16];
        __global__ void k(long tid, double *o) { o[tid] = xs[tid]; }
        int main(void) { return 0; }
    """

    def test_null_table_faults_in_the_checked_variant(self):
        after = {}
        for engine in ("tree", "source"):
            machine, error = run_launch(
                self.NULL_TABLE, engine, "k", 8,
                lambda m, cgcm: cgcm.map_array(m.global_address("xs")))
            assert isinstance(error, MemoryFault)
            after[engine] = (raised(error), machine._frame_counter,
                             machine.clock.totals())
        assert after["source"] == after["tree"]
        assert machine.checked_launches == 1

    #: ``bump`` stores through its pointer argument: no leaf.
    STORING_CALLEE = r"""
        double *xs;
        void bump(double *p) { p[0] = p[0] + 1.0; }
        __global__ void k(long tid) {
            xs[tid] = xs[tid] * 2.0;
            bump(xs + tid);
        }
        int main(void) {
            xs = (double *) malloc(16 * 8);
            for (int i = 0; i < 16; i++) xs[i] = i;
            mapArray((char *) &xs);
            __launch(k, 16);
            unmapArray((char *) &xs);
            releaseArray((char *) &xs);
            print_f64(xs[15]);
            return 0;
        }
    """

    def test_callee_kept_as_a_thunk_leaves_no_tables(self, monkeypatch):
        machine = TestLaunchProofs.run_both(self.STORING_CALLEE, monkeypatch)
        assert machine.stdout == ["31"]
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.inlined_calls == 0 and "_tb" not in code.source
        assert re.search(r"_c\d+\(", code.source)

    @staticmethod
    def table_kernel(rng) -> str:
        """A kernel that reads through one to three global pointer
        tables, calls a random leaf callee, stores through the first
        table and, at thread ``hit`` of some launches, onto its slot
        (through ``slot``) and moves it on one element."""
        tables = rng.randint(1, 3)
        c1, c2 = rng.randint(1, 5), rng.randint(0, 9)
        leaf = rng.choice((
            # A diamond of returns.
            "double leaf(double x, double y) { double w = fabs(x) + 0.5;"
            " if (x < y) return w * y; return w - y; }",
            # Joins: the callee keeps its own dispatch.
            "double leaf(double x, double y) { double m = x;"
            " if (y > m) m = y; if (m > 3.0) m = m * 0.5; return m; }",
            # A counted loop.
            "double leaf(double x, double y) { double s = 0.0;"
            " for (long i = 0; i < 3; i++) s = s + x / (i + 1) - y;"
            " return s; }",
            # Pure math only.
            "double leaf(double x, double y) {"
            " return sqrt(fabs(x) + 1.0) + fmax(x, y) - fmin(x, y); }"))
        reads = " + ".join(f"T{t}[(tid * {c1} + {c2 + t}) % 40]"
                           for t in range(tables))
        declarations = " ".join(f"double *T{t};" for t in range(tables))
        setup = " ".join(
            f"T{t} = (double *) malloc(64 * 8);"
            f" for (int i = 0; i < 64; i++) T{t}[i] = i * {t + 1} - 20;"
            f" long *slot{t} = (long *) mapArray((char *) &T{t});"
            for t in range(tables))
        teardown = " ".join(
            f"unmapArray((char *) &T{t}); releaseArray((char *) &T{t});"
            f" for (int i = 0; i < 48; i++) s = s * 1.5 + T{t}[i];"
            for t in range(tables))
        launches = []
        for _ in range(3):
            target = rng.choice(["other"] * 2 + [f"slot{t}"
                                                 for t in range(tables)])
            launches.append(f"__launch(k, {rng.randint(0, 24)}, {target},"
                            f" {rng.randint(-1, 20)});")
        return f"""
            {declarations}
            long spare[2];
            {leaf}
            __global__ void k(long tid, long *slot, long hit) {{
                double v = {reads};
                T0[(tid * {c2 + 1} + {c1}) % 40] = leaf(v, tid * 0.25);
                if (tid == hit) slot[0] = slot[0] + 8;
            }}
            int main(void) {{
                {setup}
                long *other = (long *) map((char *) spare);
                {" ".join(launches)}
                unmap((char *) spare);
                release((char *) spare);
                double s = spare[0];
                {teardown}
                print_f64(s);
                return 0;
            }}
        """

    def sweep(self, seeds, monkeypatch) -> tuple:
        """Run ``table_kernel`` of each seed on both engines; the
        launches, those that failed their proofs and the variants
        that read tables."""
        launches = checked = tabled = inlined = 0
        for seed in seeds:
            machine = TestLaunchProofs.run_both(
                self.table_kernel(random.Random(seed)), monkeypatch)
            monkeypatch.undo()
            launches += machine.kernel_launch_count
            checked += machine.checked_launches
            codes = TestLaunchProofs.kernel_codes(machine)
            tabled += "_tb0 = " in codes[True].source
            inlined += codes[True].inlined_calls
        return launches, checked, tabled, inlined

    def test_random_table_kernels_match(self, monkeypatch):
        """Seeded random table kernels: launches that read their tables
        once and launches whose store onto a slot sends them to the
        checked variant both match the tree-walker."""
        launches, checked, tabled, inlined = self.sweep(range(12),
                                                        monkeypatch)
        assert 0 < checked < launches
        assert tabled == inlined == 12

    @pytest.mark.slow
    def test_random_table_kernels_sweep(self, monkeypatch):
        launches, checked, tabled, inlined = self.sweep(range(200),
                                                        monkeypatch)
        assert 0 < checked < launches
        assert tabled == inlined == 200


class TestInlinedCalls:
    """A kernel's proven grid variant emits the body of each leaf
    callee in place of a thunk call through ``Machine.activate``, with
    the same charges, frame ids and faults.  Every run matches the
    tree-walker, launch by launch."""

    #: ``cndf`` fuses into one block (a one-pass loop); ``fmax3``'s
    #: joins keep its own dispatch loop.
    SHAPES = r"""
        double O[16];
        double cndf(double x) {
            double ax = fabs(x);
            double k = 1.0 / (1.0 + 0.25 * ax);
            double w = 1.0 - k * exp(-0.5 * x * x);
            if (x < 0.0) return 1.0 - w;
            return w;
        }
        double fmax3(double a, double b, double c) {
            double m = a;
            if (b > m) m = b;
            if (c > m) m = c;
            return m;
        }
        __global__ void k(long tid, double *o) {
            double x = tid * 0.5 - 4.0;
            o[tid] = cndf(x) + fmax3(x, -x, 1.0);
        }
        int main(void) {
            double *d = (double *) map((char *) O);
            __launch(k, 16, d);
            unmap((char *) O);
            release((char *) O);
            double s = 0.0;
            for (int i = 0; i < 16; i++) s = s * 2.0 + O[i];
            print_f64(s);
            return 0;
        }
    """

    def test_shapes_run_in_place(self, monkeypatch):
        machine = TestLaunchProofs.run_both(self.SHAPES, monkeypatch)
        assert machine.checked_launches == 0
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.inlined_calls == 2
        assert "f1b = 0" in code.source and "f0b" not in code.source
        assert not re.search(r"_c\d+\(", code.source)
        assert "M._frame_counter += a0 + 1 + _fr" in code.source
        # The caller's frame and the deepest callee's: 3 + 4 slots.
        assert f"{FRAME_TEST}56 > " in code.source
        assert "M._depth >= 256" in code.source

    def test_callee_in_a_loop_body(self, monkeypatch):
        machine = TestLaunchProofs.run_both(r"""
            double O[16];
            double weigh(double x, long n) {
                if (n > 2) return x / n;
                return x * n + 1.0;
            }
            __global__ void k(long tid, double *o) {
                double acc = 0.0;
                for (long j = 0; j <= tid; j++) acc += weigh(acc + j, j % 4);
                o[tid] = acc;
            }
            int main(void) {
                double *d = (double *) map((char *) O);
                __launch(k, 16, d);
                unmap((char *) O);
                release((char *) O);
                print_f64(O[15]);
                return 0;
            }
        """, monkeypatch)
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.inlined_calls == 1
        # The calls took frame ids between the threads'.
        assert machine._frame_counter == 1 + 16 + sum(range(1, 17))

    #: Thread 4 takes ``sqrt(-1.0)`` in the callee, thread 5 would
    #: take ``exp(1000.0)``.
    FAULTING = r"""
        double O[16];
        double root(double x) { double y = sqrt(x); return y; }
        double grow(double x) { return exp(x); }
        __global__ void k(long tid, double *o) { o[tid] = root(3.0 - tid); }
        __global__ void g(long tid, double *o) {
            o[tid] = grow(tid * 200.0);
        }
        int main(void) { return 0; }
    """

    @pytest.mark.parametrize("kernel,error", (("k", InterpError),
                                              ("g", OverflowError)))
    def test_fault_in_a_callee_keeps_the_thunk_counts(self, kernel, error,
                                                      monkeypatch):
        """The inlined launch raises what the launch run through thunk
        calls (the checked variant, forced by a cover that finds no
        segment) raises, with the same instruction and frame counts;
        the frame count is the tree-walker's."""
        after = {}
        for engine in ("tree", "source", "checked"):
            if engine == "checked":
                monkeypatch.setattr(srcgen, "_make_cover",
                                    lambda memory: lambda *bounds: None)
            machine, fault = run_launch(
                self.FAULTING, "tree" if engine == "tree" else "source",
                kernel, 8)
            assert isinstance(fault, error)
            after[engine] = (raised(fault), machine.executed_instructions,
                             machine._frame_counter)
            if engine != "tree":
                codes = TestLaunchProofs.kernel_codes(machine)
                assert codes[True].inlined_calls == 1
                assert machine.checked_launches == (engine == "checked")
        assert after["source"] == after["checked"]
        assert after["source"][0] == after["tree"][0]
        assert after["source"][2] == after["tree"][2]

    #: ``k``'s frame holds the slots of ``tid`` and ``o``, ``twice``'s
    #: those of ``x`` and ``y``.
    DEEP_FRAME = r"""
        double O[16];
        double twice(double x) { double y = x * 2.0; return y; }
        __global__ void k(long tid, double *o) { o[tid] = twice(tid); }
        int main(void) { return 0; }
    """

    def test_launch_at_the_call_depth_limit(self):
        after = {}
        for engine in ("tree", "source"):
            machine, error = run_launch(
                self.DEEP_FRAME, engine, "k", 4,
                lambda m, cgcm: setattr(m, "_depth", 255))
            assert isinstance(error, InterpError)
            after[engine] = (raised(error), machine._frame_counter,
                             machine._depth)
        assert after["source"] == after["tree"]
        assert "call depth exceeded at @twice" in after["tree"][0][1]
        assert machine.checked_launches == 1

    def test_callee_frame_past_the_stack_runs_the_checked_variant(self):
        """With the device stack pointer 16 bytes below the limit the
        thread's own frame fits but the callee's does not: the launch
        fails its frame test, and the checked variant faults in the
        callee's first alloca, as the tree-walker does."""
        after = {}
        for engine in ("tree", "source"):
            def setup(m, cgcm):
                limit = m.device.memory.segment("device-stack").limit
                m._gpu_sp = limit - 16
            machine, error = run_launch(self.DEEP_FRAME, engine, "k", 4,
                                        setup)
            assert isinstance(error, MemoryFault)
            after[engine] = (raised(error), machine.clock.totals(),
                             machine._frame_counter, machine._gpu_sp)
        assert after["source"] == after["tree"]
        assert "device-stack overflow" in after["tree"][0][1]
        assert machine.checked_launches == 1
        codes = TestLaunchProofs.kernel_codes(machine)
        assert f"{FRAME_TEST}32 > " in codes[True].source

    #: Callees that keep their thunk call.
    THUNKED = {
        "stores_through_a_pointer": (
            "void put(double *p, double v) { p[0] = v; }",
            "put(o + tid, tid * 1.5);"),
        "calls_a_defined_function": (
            "double twice(double x) { return x * 2.0; }"
            " double outer(double x) { return twice(x) + 1.0; }",
            "o[tid] = outer(tid);"),
        "recursive": (
            "long fact(long n) { if (n < 2) return 1;"
            " return n * fact(n - 1); }",
            "o[tid] = fact(tid % 6);"),
    }

    @pytest.mark.parametrize("name", sorted(THUNKED))
    def test_callees_that_keep_their_thunk(self, name, monkeypatch):
        callee, body = self.THUNKED[name]
        machine = TestLaunchProofs.run_both(f"""
            double O[16];
            {callee}
            __global__ void k(long tid, double *o) {{ {body} }}
            int main(void) {{
                double *d = (double *) map((char *) O);
                __launch(k, 16, d);
                unmap((char *) O);
                release((char *) O);
                print_f64(O[15] + O[7]);
                return 0;
            }}
        """, monkeypatch)
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.inlined_calls == 0
        assert re.search(r"_c\d+\(", code.source)

    def test_workloads_inline_their_leaf_calls(self, workload_grids):
        """blackscholes' two ``cndf`` calls and nw's ``fmax3`` calls,
        one in each of two kernels."""
        inlined = {name: sum(code.inlined_calls for code in codes)
                   for name, _, codes in workload_grids}
        assert sum(inlined.values()) == 4
        assert inlined["blackscholes"] == inlined["nw"] == 2


class TestExternals:
    """Pure-math externals are one positional call each, the total ones
    do not stop a charge from carrying, and a kernel's call to a
    host-only external raises what the tree-walker raises."""

    def test_pure_externals_bind_their_positional_function(self):
        from repro.interp.externals import GPU_SAFE
        from repro.interp.srcgen_runtime import _make_pure_external
        machine = Machine(compile_minic("int main(void) { return 0; }"),
                          engine="source")
        for name in GPU_SAFE:
            handler = machine.externals[name]
            assert _make_pure_external(machine, name) is handler.positional

    def test_kernel_loop_calling_fabs_runs_as_for(self, monkeypatch):
        machine = TestLaunchProofs.run_both(r"""
            double X[32];
            double O[8];
            __global__ void k(long tid, double *x, double *o) {
                double acc = 0.0;
                for (long j = 0; j < 4; j++) acc += fabs(x[tid * 4 + j]);
                o[tid] = acc;
            }
            int main(void) {
                for (int i = 0; i < 32; i++) X[i] = i * 0.5 - 7.0;
                double *dx = (double *) map((char *) X);
                double *d = (double *) map((char *) O);
                __launch(k, 8, dx, d);
                unmap((char *) O);
                release((char *) O);
                release((char *) X);
                print_f64(O[0] + O[7]);
                return 0;
            }
        """, monkeypatch)
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert code.for_loops == 1 and re.search(r"_p\d+\(", code.source)

    #: Thread 4 takes ``sqrt(-1.0)``, or ``exp(1000.0)``.
    RUN_TIME_FAULTS = r"""
        double O[16];
        __global__ void root(long tid, double *o) { o[tid] = sqrt(3.0 - tid); }
        __global__ void grow(long tid, double *o) { o[tid] = exp(tid * 250.0); }
        int main(void) { return 0; }
    """

    @pytest.mark.parametrize("kernel,error", (("root", InterpError),
                                              ("grow", OverflowError)))
    def test_run_time_math_faults_match(self, kernel, error):
        after = {}
        for engine in ("tree", "source"):
            machine, fault = run_launch(self.RUN_TIME_FAULTS, engine, kernel,
                                        8)
            assert isinstance(fault, error)
            after[engine] = (raised(fault), machine._frame_counter,
                             machine.clock.totals())
        assert after["source"] == after["tree"]

    #: ``map`` in a kernel, on a machine with and without the runtime.
    HOST_ONLY = r"""
        double O[16];
        __global__ void k(long tid, double *o) { map((char *) o); }
        int main(void) { return 0; }
    """

    @pytest.mark.parametrize("runtime,message", (
        (False, "call to undefined external @map"),
        (True, "kernel called host-only external @map")))
    def test_host_only_external_in_a_kernel(self, runtime, message):
        after = {}
        for engine in ("tree", "source"):
            machine, error = run_launch(self.HOST_ONLY, engine, "k", 4,
                                        runtime=runtime)
            assert isinstance(error, InterpError)
            after[engine] = (raised(error), machine._frame_counter)
        assert after["source"] == after["tree"]
        assert after["tree"][0][1] == message


class TestFloatDivision:
    """A float division by a nonzero constant is one expression, which
    folds into its user; the zero-divisor branch stays for the rest."""

    NUMERATORS = r"""
        double X[8];
        double O[8];
        __global__ void k(long tid, double *x, double *o) {
            o[tid] = x[tid] / 24.0 * 3.0;
        }
        int main(void) {
            X[0] = 1.0 / 0.0;
            X[1] = -1.0 / 0.0;
            X[2] = 0.0 / 0.0;
            X[3] = -1.0 * 0.0;
            X[4] = 48.0;
            X[5] = -1e-320;
            X[6] = 1e308;
            X[7] = 0.0;
            double *dx = (double *) map((char *) X);
            double *d = (double *) map((char *) O);
            __launch(k, 8, dx, d);
            unmap((char *) O);
            release((char *) O);
            release((char *) X);
            for (int i = 0; i < 8; i++) print_f64(O[i]);
            return 0;
        }
    """

    def test_special_numerators_match(self, monkeypatch):
        machine = TestLaunchProofs.run_both(self.NUMERATORS, monkeypatch)
        assert machine.stdout[:5] == ["inf", "-inf", "nan", "-0", "6"]
        bits = struct.unpack("<8Q", machine.read_global("O"))
        tree = Machine(compile_minic(self.NUMERATORS), engine="tree")
        CgcmRuntime(tree).declare_all_globals()
        tree.run()
        assert struct.unpack("<8Q", tree.read_global("O")) == bits
        (code,) = TestLaunchProofs.kernel_codes(machine).values()
        assert re.search(r"\]\) / 24\.0\) \* 3\.0", code.source)
        assert "_f = " not in code.source


class TestStackOverflow:
    """An alloca past its stack segment's limit faults in both engines
    instead of taking the next segment's bytes."""

    #: ``pad`` ends at the device stack's limit, where the device heap
    #: starts.
    KERNEL = r"""
        double H[4];
        __global__ void big(long tid, double *h) {
            char pad[33554416];
            double more[64];
            more[tid] = 1.0;
            h[tid] = more[tid] + pad[tid];
        }
        int main(void) {
            double *d = (double *) map((char *) H);
            __launch(big, 1, d);
            unmap((char *) H);
            release((char *) H);
            print_f64(H[0]);
            return 0;
        }
    """
    CPU = r"""
        int main(void) {
            char pad[67108848];
            double more[64];
            more[0] = 1.0;
            print_f64(more[0] + pad[0]);
            return 0;
        }
    """
    #: The fault, and the (tree-walker, source engine) instruction
    #: counts: fused code also counts the entry block's branch.
    FAULTS = {
        "kernel": (KERNEL, "device-stack overflow: 512 bytes at "
                   "0xd6000000 pass its limit 0xd6000000", (13, 14)),
        "cpu": (CPU, "stack overflow: 512 bytes at 0x73fffff0 pass its "
                "limit 0x74000000", (2, 3)),
    }

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_alloca_past_the_stack_faults(self, name):
        program, message, counts = self.FAULTS[name]
        after = {}
        for engine in ("tree", "source"):
            machine = Machine(compile_minic(program), engine=engine)
            CgcmRuntime(machine).declare_all_globals()
            with pytest.raises(MemoryFault) as fault:
                machine.run()
            after[engine] = (str(fault.value), machine.clock.totals(),
                             machine._frame_counter, machine.stdout,
                             machine.executed_instructions)
            assert machine.device.memory.segment("device-heap").data \
                == bytearray()
        assert after["source"][:-1] == after["tree"][:-1]
        assert after["tree"][0] == message
        assert (after["tree"][-1], after["source"][-1]) == counts


class TestCompileTimeChecks:
    def _malformed_module(self):
        """Verifier-clean function whose use is not dominated by its def."""
        module = Module("m")
        fn = module.add_function("main", FunctionType(I64, []))
        entry = fn.new_block("entry")
        left = fn.new_block("left")
        join = fn.new_block("join")
        b = IRBuilder(entry)
        flag = b.alloca(I64)
        b.store(0, flag)
        cond = b.cmp("eq", b.load(flag), 1)
        b.cbr(cond, left, join)
        b.position_at_end(left)
        defined = b.add(b.const(I64, 2), 3)   # only defined on this path
        b.br(join)
        b.position_at_end(join)
        b.ret(defined)                        # undefined when entry -> join
        return module, fn

    def test_srcgen_rejects_undominated_use(self):
        module, fn = self._malformed_module()
        verify_module(module)
        machine = Machine(module, engine="source")
        with pytest.raises(InterpError, match="does not dominate"):
            compile_function_source(machine, fn, "cpu", False)

    def test_unreachable_blocks_are_not_flagged(self):
        module = Module("m")
        fn = module.add_function("main", FunctionType(I64, []))
        entry = fn.new_block("entry")
        dead = fn.new_block("dead")
        b = IRBuilder(entry)
        b.ret(0)
        b.position_at_end(dead)
        ghost = b.add(b.const(I64, 1), 1)
        b.ret(ghost)
        machine = Machine(module, engine="source")
        compile_function_source(machine, fn, "cpu", False)
        assert machine.run() == 0

    def test_declaration_cannot_be_compiled(self):
        module = Module("m")
        decl = module.declare_function("ext", FunctionType(I64, []))
        machine = Machine(module, engine="source")
        with pytest.raises(InterpError, match="declaration"):
            compile_function_source(machine, decl, "cpu", False)

    def test_bad_mode_rejected(self):
        source = "int main(void) { return 0; }"
        machine = Machine(compile_minic(source), engine="source")
        fn = machine.module.get_function("main")
        with pytest.raises(InterpError, match="mode"):
            compile_function_source(machine, fn, "sequential", False)
