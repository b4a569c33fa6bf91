"""DOALL, map promotion and comm overlap reuse their analyses.

DOALL keeps one set of analyses per CPU function for the whole pass
and updates it in place after each outline; it never re-analyses a
loop that already failed, except the loop the outlined one exited
into.  Map promotion adds no block, so one loop forest and one
predecessor map serve a whole ``_promote_in_function`` call.  Comm
overlap adds no store and no address use, so it computes each value's
alias roots once per run.  Glue kernels rebuild their analyses after
every outline, because one glue outline can make a rejected run
qualify.  The printed IR must not change: a reference driver here runs
DOALL the way it ran before it kept its analyses.
"""

import pytest

from repro.analysis import alias
from repro.core import CgcmCompiler, CgcmConfig
from repro.frontend import compile_minic
from repro.ir import Alloca, Call, GetElementPtr, Store
from repro.ir.function import Function
from repro.ir.parser import parse_module
from repro.ir.printer import module_to_str
from repro.scenarios.generator import generate_program
from repro.transforms import (CommunicationManager, DoallParallelizer,
                              GlueKernels, MapPromotion,
                              insert_global_declarations)
from repro.transforms import doall, map_promotion
from repro.transforms.comm_overlap import CommOverlap

#: Three CPU functions.  The pass outlines three loops: main's
#: initialisation, scale's loop, and prefix's inner ``j`` loop.  It
#: rejects prefix's ``t`` loop (B[t] reads B[t-1], a carried
#: dependence), after which the inner loop is analysed with ``t`` as an
#: enclosing induction variable, and main's reduction into ``s``.
DOALL_SOURCE = r"""
double A[16];
double B[16][16];
double C[16];

void scale(void) {
    for (int i = 0; i < 16; i++) A[i] = A[i] * 2.0;
}

void prefix(void) {
    for (int t = 1; t < 16; t++) {
        for (int j = 0; j < 16; j++) B[t][j] = B[t - 1][j] + 1.0;
    }
}

int main(void) {
    for (int i = 0; i < 16; i++) C[i] = i;
    scale();
    prefix();
    double s = 0.0;
    for (int i = 0; i < 16; i++) s += C[i];
    print_f64(s + A[3] + B[15][2]);
    return 0;
}
"""


def reference_doall(module):
    """DOALL as it ran before it kept its analyses: rebuild them after
    every outline and walk every loop again, failed ones included."""
    parallelizer = DoallParallelizer(module)
    for fn in list(module.defined_functions()):
        changed = not fn.is_kernel
        while changed:
            changed = False
            cfg = doall._CfgAnalyses(fn)
            for loop in cfg.loops:
                plan = parallelizer._analyze(cfg, loop)
                if plan is not None:
                    parallelizer._outline(fn, plan)
                    changed = True
                    break
    return parallelizer.kernels


def _doall_outputs(module_of):
    """Printed IR and kernel names after the pass and after the
    reference driver, each on its own copy of the module."""
    passed, referenced = module_of(), module_of()
    kernels = DoallParallelizer(passed).run()
    reference_kernels = reference_doall(referenced)
    return ((module_to_str(passed), [k.name for k in kernels]),
            (module_to_str(referenced), [k.name for k in reference_kernels]))


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_doall_builds_one_loop_forest_per_cfg_version(monkeypatch):
    forests = _count_calls(monkeypatch, doall, "find_loops")
    module = compile_minic(DOALL_SOURCE)
    cpu_functions = [fn for fn in module.defined_functions()
                     if not fn.is_kernel]
    kernels = DoallParallelizer(module).run()
    assert sorted(k.name.split("__")[0] for k in kernels) \
        == ["main", "prefix", "scale"]
    # One forest per function: outlines update it in place.
    assert sorted(fn.name for fn in forests) \
        == sorted(fn.name for fn in cpu_functions)


def _alternating_source(pairs: int) -> str:
    """``pairs`` sibling loops that parallelize, each followed by one
    that carries a dependence (A[i] reads A[i-1])."""
    loops = []
    for k in range(pairs):
        loops.append(f"for (int i = 0; i < 16; i++) B{k}[i] = i * 2.0;")
        loops.append(f"for (int i = 1; i < 16; i++) "
                     f"A[i] = A[i - 1] + B{k}[i];")
    arrays = "".join(f"double B{k}[16];\n" for k in range(pairs))
    body = "\n    ".join(loops)
    return f"""
double A[16];
{arrays}
int main(void) {{
    {body}
    print_f64(A[15]);
    return 0;
}}
"""


@pytest.mark.parametrize("pairs", [3, 6])
def test_doall_analyses_each_loop_once(monkeypatch, pairs):
    analyses = []
    real_analyze = DoallParallelizer._analyze

    def counting_analyze(self, cfg, loop):
        analyses.append(loop.header)
        return real_analyze(self, cfg, loop)

    monkeypatch.setattr(DoallParallelizer, "_analyze", counting_analyze)
    module = compile_minic(_alternating_source(pairs))
    kernels = DoallParallelizer(module).run()
    assert len(kernels) == pairs
    # One analysis per loop, however many outlines come between.
    assert len(analyses) == len(set(analyses)) == 2 * pairs


#: Loop A (``a.*``) exits straight into loop B's header, and B's blocks
#: come first, so the outermost-first walk reaches B first.  B then has
#: no preheader: its one outside predecessor is A's header, which has
#: two successors.  Once A is outlined the launch block precedes B's
#: header, and B, which continues A's induction variable, qualifies.
EXIT_INTO_LOOP_IR = """
module "exit_into_loop"

global @A : [16 x f64] = zero

declare @print_f64 : void (f64)

func @main() -> i64 {
entry:
  %i.addr = alloca i64, i64 1
  store i64 0, ptr<i64> %i.addr
  br label %a.head
b.head:
  %v0 = load ptr<i64> %i.addr
  %c0 = cmp lt i64 %v0, i64 16
  cbr i1 %c0, label %b.body, label %done
b.body:
  %v1 = load ptr<i64> %i.addr
  %e1 = gep ptr<[16 x f64]> @A, i64 0, i64 %v1
  store f64 2.0, ptr<f64> %e1
  br label %b.step
b.step:
  %v2 = load ptr<i64> %i.addr
  %n2 = add i64 %v2, i64 1
  store i64 %n2, ptr<i64> %i.addr
  br label %b.head
a.head:
  %v3 = load ptr<i64> %i.addr
  %c3 = cmp lt i64 %v3, i64 8
  cbr i1 %c3, label %a.body, label %b.head
a.body:
  %v4 = load ptr<i64> %i.addr
  %e4 = gep ptr<[16 x f64]> @A, i64 0, i64 %v4
  store f64 1.0, ptr<f64> %e4
  br label %a.step
a.step:
  %v5 = load ptr<i64> %i.addr
  %n5 = add i64 %v5, i64 1
  store i64 %n5, ptr<i64> %i.addr
  br label %a.head
done:
  %e6 = gep ptr<[16 x f64]> @A, i64 0, i64 3
  %v6 = load ptr<f64> %e6
  %e7 = gep ptr<[16 x f64]> @A, i64 0, i64 12
  %v7 = load ptr<f64> %e7
  %s = add f64 %v6, f64 %v7
  call @print_f64(f64 %s)
  ret i64 0
}
"""


def test_loop_exited_into_is_analysed_again():
    (text, kernels), (reference_text, reference_kernels) = _doall_outputs(
        lambda: parse_module(EXIT_INTO_LOOP_IR))
    assert kernels == reference_kernels == ["main__doall1", "main__doall2"]
    assert text == reference_text


def _assert_matches_reference(seeds, count):
    for seed in seeds:
        for index in range(count):
            source = generate_program(seed, index).source
            (text, kernels), (reference_text, reference_kernels) = \
                _doall_outputs(lambda: compile_minic(source))
            assert kernels == reference_kernels, (seed, index)
            assert text == reference_text, (seed, index)


def test_doall_matches_rebuild_and_restart_driver():
    _assert_matches_reference(range(3), 40)


@pytest.mark.slow
def test_doall_matches_rebuild_and_restart_driver_wide():
    _assert_matches_reference(range(9), 200)


#: After DOALL, the ``i`` loop is a launch inside ``t`` inside ``r``;
#: map promotion hoists A's and B's copies out of ``t`` and then out
#: of ``r``.
PROMOTION_SOURCE = r"""
double A[32];
double B[32];
int main(void) {
    for (int i = 0; i < 32; i++) { A[i] = i; B[i] = 0.0; }
    for (int r = 0; r < 3; r++) {
        for (int t = 0; t < 4; t++) {
            for (int i = 0; i < 32; i++) B[i] = B[i] + A[i];
        }
    }
    double s = 0.0;
    for (int i = 0; i < 32; i++) s += B[i];
    print_f64(s);
    return 0;
}
"""


def test_map_promotion_builds_one_forest_per_function_visit(monkeypatch):
    visits = _count_calls(monkeypatch, MapPromotion, "_promote_in_function")
    forests = _count_calls(monkeypatch, map_promotion, "find_loops")
    pred_maps = _count_calls(monkeypatch, map_promotion, "predecessor_map")
    report = CgcmCompiler(CgcmConfig()).compile_source(PROMOTION_SOURCE)
    assert report.promoted_loops >= 2
    assert len(forests) == len(pred_maps) == len(visits)


def _promoted_module(source):
    """``source`` through the optimized pipeline up to map promotion:
    the input comm overlap sees under ``streams=True``."""
    return CgcmCompiler(CgcmConfig()).compile_source(source).module


def test_comm_overlap_computes_each_value_roots_once(monkeypatch):
    module = _promoted_module(PROMOTION_SOURCE)
    queries = []
    real_roots_of = alias._roots_of

    def counting_roots_of(value, depth, slots):
        if depth == 0:
            queries.append(value)
        return real_roots_of(value, depth, slots)

    monkeypatch.setattr(alias, "_roots_of", counting_roots_of)
    stats = CommOverlap(module).run()
    assert stats["async_rewrites"] > 0
    assert queries
    assert len(queries) == len(set(queries))


#: A map whose pointer is loaded from a local spill slot: its alias
#: roots are the values stored to ``p``.
SLOT_SOURCE = r"""
double A[32];
double B[32];
int main(void) {
    double *p = A;
    for (int t = 0; t < 3; t++) {
        for (int i = 0; i < 32; i++) p[i] = p[i] + 1.0;
    }
    print_f64(A[3] + B[3]);
    return 0;
}
"""


def test_comm_overlap_memo_lives_for_one_run():
    module = _promoted_module(SLOT_SOURCE)
    main = module.get_function("main")
    maps = [inst for inst in main.instructions()
            if isinstance(inst, Call) and inst.callee.name == "map"]
    slot = next(inst for inst in main.instructions()
                if isinstance(inst, Alloca) and inst.name == "p.addr")
    b_start = next(inst for inst in main.entry_block.instructions
                   if isinstance(inst, GetElementPtr)
                   and inst.pointer is module.get_global("B"))
    assert len(maps) == 2

    def names(roots):
        return sorted(root.name for root in roots)

    first = CommOverlap(module)
    assert [names(first._unit_roots(call)) for call in maps] \
        == [["A"], ["A"]]
    # Let ``p`` also point at B: a later run must see both arrays.
    main.entry_block.insert_before_terminator(Store(b_start, slot))
    assert [names(first._unit_roots(call)) for call in maps] \
        == [["A"], ["A"]]  # this run's memo
    second = CommOverlap(module)
    assert [names(second._unit_roots(call)) for call in maps] \
        == [["A", "B"], ["A", "B"]]


def _glue_source(terms: int) -> str:
    """A launch loop whose glue-safe update of ``alpha`` is a single
    statement of about ``3 * terms`` instructions."""
    update = " + ".join(f"alpha * {0.5 / (k + 1)!r}" for k in range(terms))
    return rf"""
double field[16];
double alpha;
int main(void) {{
    alpha = 1.0;
    for (int i = 0; i < 16; i++) field[i] = i;
    for (int t = 0; t < 5; t++) {{
        for (int i = 0; i < 16; i++)
            field[i] = field[i] * alpha;
        alpha = {update};
    }}
    print_f64(field[3] + alpha);
    return 0;
}}
"""


def _glue_instruction_scans(monkeypatch, terms: int):
    module = compile_minic(_glue_source(terms))
    DoallParallelizer(module).run()
    insert_global_declarations(module)
    CommunicationManager(module).run()
    main = module.get_function("main")
    run_length = max(len(block.instructions) for block in main.blocks)

    scans = []
    real_instructions = Function.instructions

    def counting_instructions(fn):
        scans.append(fn.name)
        return real_instructions(fn)

    glue = GlueKernels(module)
    with monkeypatch.context() as patch:
        patch.setattr(Function, "instructions", counting_instructions)
        glue.run()
    return len(glue.kernels), run_length, len(scans)


def test_glue_scans_do_not_grow_with_run_length(monkeypatch):
    short = _glue_instruction_scans(monkeypatch, 14)
    long = _glue_instruction_scans(monkeypatch, 18)
    short_kernels, short_block, short_scans = short
    long_kernels, long_block, long_scans = long
    # Both runs qualify, and each is one glue kernel.
    assert short_kernels == long_kernels == 1
    assert short_block >= 40
    assert long_block > short_block
    assert long_scans == short_scans
