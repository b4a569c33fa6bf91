"""Alias, mod/ref, and affine dependence analysis tests."""

import pytest

from repro.analysis import (AffineContext, IvRange, ModRefAnalysis, UNKNOWN,
                            access_form, affine_of,
                            conflicts_across_iterations, find_loops,
                            may_alias, recognize_counted_loop,
                            underlying_objects)
from repro.analysis import alias
from repro.analysis.affine import _conflict_exists, _lattice_hits
from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.frontend import compile_minic
from repro.ir import GetElementPtr, Load, Store


class TestUnderlyingObjects:
    def test_distinct_globals_do_not_alias(self):
        module = compile_minic("""
        double A[4];
        double B[4];
        int main(void) {
            A[1] = 0.0;
            B[1] = 0.0;
            return 0;
        }""")
        fn = module.get_function("main")
        stores = [i for i in fn.instructions() if isinstance(i, Store)]
        a_ptr = stores[0].pointer
        b_ptr = stores[1].pointer
        assert not may_alias(a_ptr, b_ptr)
        assert may_alias(a_ptr, a_ptr)

    def test_gep_and_cast_traced_to_root(self):
        module = compile_minic("""
        double A[4];
        int main(void) {
            char *raw = (char *) A;
            double *back = (double *) (raw + 8);
            *back = 1.0;
            return 0;
        }""")
        fn = module.get_function("main")
        store = [i for i in fn.instructions() if isinstance(i, Store)
                 and i.value.type.is_float][0]
        roots = underlying_objects(store.pointer)
        assert {getattr(r, "name", r) for r in roots} == {"A"}

    def test_loaded_pointer_is_unknown(self):
        module = compile_minic("""
        double *slot;
        int main(void) {
            *slot = 1.0;
            return 0;
        }""")
        fn = module.get_function("main")
        store = [i for i in fn.instructions() if isinstance(i, Store)
                 and i.value.type.is_float][0]
        assert UNKNOWN in underlying_objects(store.pointer)

    def test_malloc_results_are_distinct(self):
        module = compile_minic("""
        int main(void) {
            double *a = (double *) malloc(32);
            double *b = (double *) malloc(32);
            a[0] = 1.0;
            b[0] = 2.0;
            return 0;
        }""")
        fn = module.get_function("main")
        stores = [i for i in fn.instructions() if isinstance(i, Store)
                  and i.value.type.is_float]
        assert not may_alias(stores[0].pointer, stores[1].pointer)


def _incremented_pointer_source(increments: int, is_global: bool) -> str:
    """A pointer into A advanced by ``increments`` loops of
    ``p = p + 1``, then read inside a launch loop's outer loop: every
    increment stores a value loaded from the pointer's own slot."""
    name = "gp" if is_global else "p"
    declare = "double *gp;" if is_global else ""
    start = "gp = A;" if is_global else "double *p = A;"
    loops = "\n".join(
        f"    for (int i{k} = 0; i{k} < 4; i{k}++) {{ {name} = {name} + 1; }}"
        for k in range(increments))
    return f"""
double A[64]; double B[64];
{declare}
int main(void) {{
    {start}
{loops}
    double s = 0.0;
    for (int t = 0; t < 3; t++) {{
        for (int k = 0; k < 64; k++) B[k] = B[k] + 1.0;
        s = s + *{name};
    }}
    print_f64(s + B[3]);
    return 0;
}}
"""


class TestSelfIncrementedPointers:
    """``p = p + 1`` stores into ``p``'s slot a value loaded from it.
    The walk used to expand the slot again for every such store at
    every level down to its depth cap, so each one doubled a query's
    work: with two of them the optimized pipeline never finished."""

    @staticmethod
    def _count_walks(monkeypatch, budget=10_000):
        walks = []
        real_roots_of = alias._roots_of

        def counting(value, depth, slots):
            walks.append(value)
            assert len(walks) <= budget, "runaway alias walk"
            return real_roots_of(value, depth, slots)

        monkeypatch.setattr(alias, "_roots_of", counting)
        return walks

    @pytest.mark.parametrize("is_global", [False, True],
                             ids=["local", "global"])
    @pytest.mark.parametrize("increments", [1, 2, 6])
    def test_query_expands_each_slot_once(self, monkeypatch, increments,
                                          is_global):
        module = compile_minic(
            _incremented_pointer_source(increments, is_global))
        loads = [inst for inst in module.get_function("main").instructions()
                 if isinstance(inst, Load) and inst.type.is_pointer]
        walks = self._count_walks(monkeypatch)
        stores = increments + 1
        assert len(loads) == stores
        for load in loads:
            walks.clear()
            roots = underlying_objects(load)
            # The path back into the slot gets UNKNOWN, as the depth
            # cap gave it; the slot's own stores are walked once.
            assert {getattr(r, "name", r) for r in roots} == {"A", UNKNOWN}
            assert len(walks) <= 3 * stores + 1

    @pytest.mark.parametrize("is_global", [False, True],
                             ids=["local", "global"])
    @pytest.mark.parametrize("config", ["sequential", "optimized",
                                        "streams"])
    def test_compiles_and_runs_under_every_config(self, monkeypatch,
                                                   config, is_global):
        configs = {
            "sequential": CgcmConfig(opt_level=OptLevel.SEQUENTIAL),
            "optimized": CgcmConfig(),
            "streams": CgcmConfig(streams=True),
        }
        walks = self._count_walks(monkeypatch)
        compiler = CgcmCompiler(configs[config])
        report = compiler.compile_source(
            _incremented_pointer_source(2, is_global))
        assert len(walks) <= 100
        assert compiler.execute(report).stdout == ("3",)


class TestModRef:
    def _loop_and_fn(self, source):
        module = compile_minic(source)
        fn = module.get_function("main")
        loop = find_loops(fn)[0]
        return module, fn, loop

    def test_store_in_region_is_mod(self):
        module, fn, loop = self._loop_and_fn("""
        double A[4];
        int main(void) {
            for (int i = 0; i < 4; i++) A[i] = 1.0;
            return 0;
        }""")
        root = module.get_global("A")
        mod, ref = ModRefAnalysis().region_mod_ref(loop.blocks, root)
        assert mod and not ref

    def test_unrelated_object_untouched(self):
        module, fn, loop = self._loop_and_fn("""
        double A[4];
        double B[4];
        int main(void) {
            for (int i = 0; i < 4; i++) A[i] = 1.0;
            B[0] = 2.0;
            return 0;
        }""")
        root = module.get_global("B")
        mod, ref = ModRefAnalysis().region_mod_ref(loop.blocks, root)
        assert not mod and not ref

    def test_call_into_helper_counts(self):
        module, fn, loop = self._loop_and_fn("""
        double A[4];
        void poke(long i) { A[i] = 3.0; }
        int main(void) {
            for (int i = 0; i < 4; i++) poke(i);
            return 0;
        }""")
        root = module.get_global("A")
        mod, _ = ModRefAnalysis().region_mod_ref(loop.blocks, root)
        assert mod

    def test_pointer_passed_to_helper_counts(self):
        module, fn, loop = self._loop_and_fn("""
        double A[4];
        void poke(double *p) { p[0] = 3.0; }
        int main(void) {
            for (int i = 0; i < 4; i++) poke(A);
            return 0;
        }""")
        root = module.get_global("A")
        mod, _ = ModRefAnalysis().region_mod_ref(loop.blocks, root)
        assert mod

    def test_pure_external_is_clean(self):
        module, fn, loop = self._loop_and_fn("""
        double A[4];
        int main(void) {
            double x = 0.0;
            for (int i = 0; i < 4; i++) x = sqrt(x + i);
            A[0] = x;
            return 0;
        }""")
        root = module.get_global("A")
        mod, ref = ModRefAnalysis().region_mod_ref(loop.blocks, root)
        assert not mod and not ref


class TestConflictSolver:
    def test_lattice_hits(self):
        assert _lattice_hits(0, 8, 4, 8)       # 8 on the lattice
        assert not _lattice_hits(0, 8, 4, 7)   # nothing between 4..7
        assert _lattice_hits(3, 8, 10, 12)     # 11 = 3 + 8
        assert _lattice_hits(5, 0, 5, 9)       # degenerate lattice
        assert not _lattice_hits(5, 0, 6, 9)

    def test_point_collisions(self):
        # D = 8*delta + 0, byte windows of one f64: conflict iff some
        # nonzero delta makes |8*delta| <= 7 -- impossible.
        assert not _conflict_exists(8, -7, 7, 0, 0, 0, 0, None)
        # Stride 1 with 1-byte accesses: distinct bytes, no conflict.
        assert not _conflict_exists(1, 0, 0, 0, 0, 0, 0, None)
        # Stride 1 with 2-byte accesses: neighbours overlap.
        assert _conflict_exists(1, -1, 1, 0, 0, 0, 0, None)

    def test_divisibility_pruning(self):
        # Column sweep: D = 8*delta + 64*m; |delta| <= 7: no solution.
        assert not _conflict_exists(8, -7, 7, -448, 448, 0, 64, 7)
        # Without the delta bound a solution exists (delta = 8, m=-1).
        assert _conflict_exists(8, -7, 7, -448, 448, 0, 64, None)

    def test_interval_pruning(self):
        # Stencil row: D = 8*delta - 64 + small window: delta = 8 would
        # hit, but trips bound delta to 5.
        assert not _conflict_exists(8, -7, 7, -64, -64, -64, 0, 5)
        assert _conflict_exists(8, -7, 7, -64, -64, -64, 0, 8)


class TestAffineConflicts:
    def _context(self, source):
        module = compile_minic(source)
        fn = module.get_function("main")
        loops = find_loops(fn)
        outer = recognize_counted_loop(fn, loops[0])
        inner_ranges = {}
        for loop in loops[1:]:
            counted = recognize_counted_loop(fn, loop)
            if counted is not None:
                from repro.ir import Constant
                if isinstance(counted.start, Constant) and \
                        isinstance(counted.end, Constant):
                    inner_ranges[counted.ivar] = IvRange(
                        counted.start.value, counted.end.value,
                        counted.step)
        ctx = AffineContext(outer, inner_ranges)
        accesses = []
        for block in outer.body_blocks:
            for inst in block.instructions:
                if isinstance(inst, (Load, Store)):
                    accesses.append(inst)
        return ctx, accesses

    def test_row_parallel_updates_do_not_conflict(self):
        ctx, accesses = self._context("""
        double M[8][8];
        int main(void) {
            for (int i = 0; i < 8; i++)
                for (int j = 0; j < 8; j++)
                    M[i][j] = M[i][j] + 1.0;
            return 0;
        }""")
        forms = [access_form(a, ctx) for a in accesses
                 if "M" in str(underlying_objects(a.pointer))]
        writes = [f for f in forms if f.is_write]
        assert writes
        for f in forms:
            for g in writes:
                assert not conflicts_across_iterations(f, g, ctx)

    def test_stencil_neighbour_reads_conflict(self):
        ctx, accesses = self._context("""
        double M[8][8];
        int main(void) {
            for (int i = 1; i < 7; i++)
                for (int j = 1; j < 7; j++)
                    M[i][j] = M[i - 1][j] + M[i + 1][j];
            return 0;
        }""")
        forms = [access_form(a, ctx) for a in accesses]
        writes = [f for f in forms if f.is_write]
        reads = [f for f in forms if not f.is_write]
        assert any(conflicts_across_iterations(r, w, ctx)
                   for r in reads for w in writes)

    def test_transposed_write_conflicts(self):
        ctx, accesses = self._context("""
        double M[8][8];
        int main(void) {
            for (int i = 0; i < 8; i++)
                for (int j = 0; j < 8; j++)
                    M[j][i] = M[i][j];
            return 0;
        }""")
        forms = [access_form(a, ctx) for a in accesses]
        writes = [f for f in forms if f.is_write]
        reads = [f for f in forms if not f.is_write]
        assert any(conflicts_across_iterations(r, w, ctx)
                   for r in reads for w in writes)

    def test_unknown_subscript_is_conservative(self):
        ctx, accesses = self._context("""
        double M[64];
        long idx[8];
        int main(void) {
            for (int i = 0; i < 8; i++)
                M[idx[i]] = 1.0;
            return 0;
        }""")
        forms = [access_form(a, ctx) for a in accesses if
                 isinstance(a, Store)]
        assert conflicts_across_iterations(forms[0], forms[0], ctx)
