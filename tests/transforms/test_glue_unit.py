"""Focused glue-kernel pass tests (straight-line and inner-loop)."""

import pytest

from repro.core import CgcmCompiler, CgcmConfig, OptLevel
from repro.frontend import compile_minic
from repro.ir import Call, LaunchKernel
from repro.transforms import (CommunicationManager, DoallParallelizer,
                              GlueKernels, insert_global_declarations)


def glued_module(source):
    module = compile_minic(source)
    DoallParallelizer(module).run()
    insert_global_declarations(module)
    manager = CommunicationManager(module)
    manager.run()
    glue = GlueKernels(module)
    launches = glue.run()
    for launch in launches:
        manager.manage_launch(launch.parent.parent, launch)
    return module, glue


SCALAR_GLUE = r"""
double field[16];
double alpha;
int main(void) {
    alpha = 1.0;
    for (int i = 0; i < 16; i++) field[i] = i;
    for (int t = 0; t < 5; t++) {
        for (int i = 0; i < 16; i++)
            field[i] = field[i] * alpha;
        alpha = alpha * 0.5 + 0.1;
    }
    print_f64(field[3] + alpha);
    return 0;
}
"""


class TestStraightLineGlue:
    def test_scalar_update_becomes_one_thread_kernel(self):
        module, glue = glued_module(SCALAR_GLUE)
        assert len(glue.kernels) == 1
        kernel = glue.kernels[0]
        assert kernel.is_kernel
        # Grid size 1: a single-threaded GPU function.
        for fn in module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, LaunchKernel) \
                        and inst.kernel is kernel:
                    assert inst.grid.value == 1

    def test_glue_requires_mapped_unit_to_unblock(self):
        """A store to a never-mapped global must NOT be glued (pure
        launch overhead; the unblocking precondition fails)."""
        module, glue = glued_module(r"""
        double data[16];
        double log_[8];
        int main(void) {
            for (int i = 0; i < 16; i++) data[i] = i;
            for (int t = 0; t < 5; t++) {
                for (int i = 0; i < 16; i++)
                    data[i] = data[i] + 1.0;
                log_[t % 8] = t * 2.0;  /* never used by any kernel */
            }
            double s = log_[0] + data[5];
            print_f64(s);
            return 0;
        }""")
        # log_ is not a kernel live-in: gluing its store unblocks
        # nothing, so the pass should leave it on the CPU.
        assert all("glue" not in k.name or True for k in glue.kernels)
        for kernel in glue.kernels:
            # any glue that did fire must touch 'data', not 'log_'
            names = {op.name for fn in [kernel]
                     for inst in fn.instructions()
                     for op in inst.operands
                     if hasattr(op, "value_type")}
            assert "log_" not in names

    def test_host_only_code_never_glued(self):
        module, glue = glued_module(r"""
        double data[16];
        int main(void) {
            for (int i = 0; i < 16; i++) data[i] = i;
            for (int t = 0; t < 4; t++) {
                for (int i = 0; i < 16; i++)
                    data[i] = data[i] * 1.5;
                print_i64(t);   /* host-only external */
            }
            return 0;
        }""")
        for kernel in glue.kernels:
            for inst in kernel.instructions():
                if isinstance(inst, Call):
                    assert inst.callee.name != "print_i64"


class TestInnerLoopGlue:
    def test_reduction_loop_with_consumer_absorbed(self):
        module, glue = glued_module(r"""
        double xs[16];
        double norm;
        int main(void) {
            for (int i = 0; i < 16; i++) xs[i] = i * 0.5;
            for (int t = 0; t < 4; t++) {
                double acc = 0.0;
                for (int i = 0; i < 16; i++)
                    acc += xs[i] * xs[i];
                norm = sqrt(acc);
                for (int i = 0; i < 16; i++)
                    xs[i] = xs[i] / (norm + 1.0);
            }
            print_f64(norm);
            return 0;
        }""")
        assert glue.kernels, "the reduction should be glued"
        # The glue kernel contains the loop AND the sqrt consumer.
        reduction = glue.kernels[0]
        callees = {inst.callee.name for inst in reduction.instructions()
                   if isinstance(inst, Call)}
        assert "sqrt" in callees

    def test_glue_correctness_end_to_end(self):
        for source in (SCALAR_GLUE,):
            results = []
            for level in (OptLevel.SEQUENTIAL, OptLevel.OPTIMIZED):
                compiler = CgcmCompiler(CgcmConfig(opt_level=level))
                report = compiler.compile_source(source, "glue")
                results.append(compiler.execute(report).stdout)
            assert results[0] == results[1]

    def test_deeply_nested_loops_not_glued(self):
        """Only loops immediately inside the launch-containing loop
        qualify ("small CPU code regions between two GPU functions")."""
        module, glue = glued_module(r"""
        double data[8][8];
        int main(void) {
            for (int i = 0; i < 8; i++)
                for (int j = 0; j < 8; j++) data[i][j] = i + j;
            for (int t = 0; t < 3; t++) {
                for (int i = 0; i < 8; i++)
                    for (int j = 0; j < 8; j++)
                        data[i][j] = data[i][j] * 1.1;
                /* a sequential row recurrence nested two deep */
                for (int i = 0; i < 8; i++)
                    for (int j = 1; j < 8; j++)
                        data[i][j] = data[i][j] + data[i][j - 1];
            }
            print_f64(data[7][7]);
            return 0;
        }""")
        # The doubly-nested j loop (inside the non-launch i loop) must
        # not be glued on its own.
        from repro.analysis import find_loops
        for kernel in glue.kernels:
            assert len(find_loops(kernel)) <= 1


def time_stepped(statements):
    """A program running ``statements`` over A, B and C three times."""
    body = "\n        ".join(statements)
    return f"""
double A[12];
double B[12];
double C[12];
int main(void) {{
    for (int i = 0; i < 12; i++) {{
        A[i] = i * 0.25;
        B[i] = (12 - i) * 0.5;
        C[i] = (i % 3) * 1.5;
    }}
    for (int t = 0; t < 3; t++) {{
        {body}
    }}
    print_f64(A[3] + B[5] + C[7]);
    return 0;
}}
"""


#: Programs whose glue regions each free a mapped unit but touch
#: another that CPU code left in the time loop also touches; the glue
#: launches then copied that unit in and out on every iteration, up to
#: 1.65x the unoptimized modeled time.
SHARED_UNIT_PROGRAMS = {
    "write-shared": [
        "for (int i = 0; i < 12; i++) B[i] = C[i] * 0.5 + 0.0;",
        "for (int i = 0; i < 12; i++) A[i] = A[i] + A[11 - i];",
        "for (int i = 0; i < 12; i++) A[i] = B[i] + A[11 - i];",
        "for (int i = 0; i < 12; i++) A[i] = C[i] + A[11 - i];",
    ],
    "read-shared": [
        "for (int i = 0; i < 12; i++) B[i] = A[i] + B[11 - i];",
        "for (int i = 0; i < 12; i++) C[i] = A[i] + C[11 - i];",
        "for (int i = 1; i < 12; i++) A[i] = A[i - 1] + 1.0;",
        "for (int i = 0; i < 11; i++) B[i] = (C[i] + C[i + 1]) * 0.5;",
    ],
    "reductions": [
        "{ double acc = 0.0; for (int i = 0; i < 12; i++) acc += C[i]; "
        "B[0] = acc; }",
        "{ double acc = 0.0; for (int i = 0; i < 12; i++) acc += C[i]; "
        "A[0] = acc; }",
        "{ double acc = 0.0; for (int i = 0; i < 12; i++) acc += C[i]; "
        "A[0] = acc; }",
        "for (int i = 0; i < 12; i++) B[i] = B[i] + A[11 - i];",
    ],
    "reductions-after-kernel": [
        "for (int i = 0; i < 12; i++) A[i] = A[i] * 0.5 + -3.0;",
        "{ double acc = 0.0; for (int i = 0; i < 12; i++) acc += C[i]; "
        "B[0] = acc; }",
        "{ double acc = 0.0; for (int i = 0; i < 12; i++) acc += C[i]; "
        "B[0] = acc; }",
        "{ double acc = 0.0; for (int i = 0; i < 12; i++) acc += C[i]; "
        "A[0] = acc; }",
    ],
}


class TestGlueProfitability:
    def test_region_sharing_a_unit_with_cpu_code_not_glued(self):
        """Each CPU loop touches A, which the other CPU loops touch
        too: gluing any of them would copy A around its launch."""
        _, glue = glued_module(
            time_stepped(SHARED_UNIT_PROGRAMS["write-shared"]))
        assert glue.kernels == []

    @pytest.mark.parametrize("name", sorted(SHARED_UNIT_PROGRAMS))
    def test_optimization_not_slower_than_unoptimized(self, name):
        source = time_stepped(SHARED_UNIT_PROGRAMS[name])
        results = {}
        for level in (OptLevel.UNOPTIMIZED, OptLevel.OPTIMIZED):
            compiler = CgcmCompiler(CgcmConfig(opt_level=level))
            report = compiler.compile_source(source, name)
            results[level] = compiler.execute(report)
        unoptimized = results[OptLevel.UNOPTIMIZED]
        optimized = results[OptLevel.OPTIMIZED]
        assert optimized.observable() == unoptimized.observable()
        assert optimized.total_seconds <= unoptimized.total_seconds
