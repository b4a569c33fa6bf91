"""The DOALL and glue-kernel passes analyse each CFG version once.

A CFG version is a function's control-flow graph between two outlines.
Candidate analysis only reads the IR, so the loop forest, predecessor
map and use lists of a version serve every candidate analysed against
it; only an outline makes the passes rebuild them.
"""

from repro.frontend import compile_minic
from repro.ir.function import Function
from repro.transforms import (CommunicationManager, DoallParallelizer,
                              GlueKernels, insert_global_declarations)
from repro.transforms import doall

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


def test_doall_builds_one_loop_forest_per_cfg_version(monkeypatch):
    calls = []
    real_find_loops = doall.find_loops

    def counting_find_loops(fn):
        calls.append(fn.name)
        return real_find_loops(fn)

    monkeypatch.setattr(doall, "find_loops", counting_find_loops)
    module = compile_minic(DOALL_SOURCE)
    cpu_functions = [fn for fn in module.defined_functions()
                     if not fn.is_kernel]
    kernels = DoallParallelizer(module).run()
    assert sorted(k.name.split("__")[0] for k in kernels) \
        == ["main", "prefix", "scale"]
    # One version per function, plus one more after every outline.
    assert len(calls) == len(cpu_functions) + len(kernels)


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
