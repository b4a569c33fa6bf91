"""Source-engine unit tests: emission, caching, hook variants.

Mirrors ``test_codegen.py`` for the srcgen engine and adds the
compiled-cache keying regression: a sanitizer-armed run must never
reuse an unhooked compiled body, and vice versa.
"""

import gc
import weakref

import pytest

from repro.api import Session
from repro.errors import CgcmUnsupportedError, InterpError
from repro.frontend import compile_minic
from repro.interp import Machine
from repro.interp.srcgen import compile_function_source
from repro.ir import (FunctionType, I64, IRBuilder, Module, verify_module)
from repro.ir.instructions import Call, LaunchKernel
from repro.runtime import CgcmRuntime
from repro.staticcheck.corpus import CORPUS


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

    @pytest.mark.parametrize("engine", ("compiled", "source"))
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

    @pytest.mark.parametrize("engine", ("compiled", "source"))
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

    @pytest.mark.parametrize("engine", ("compiled", "source"))
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
