"""Kernel execution on the simulated GPU: grids, timing, restrictions.

Each class runs on the tree-walker, and its ``...OnSource`` subclass
runs the same cases on the source engine, whose launches execute as
one generated grid function.
"""

import pytest

from repro.errors import CgcmUnsupportedError, InterpError, MemoryFault
from repro.frontend import compile_minic
from repro.interp import Machine
from repro.runtime import CgcmRuntime


def run_with_runtime(engine: str, source: str):
    machine = Machine(compile_minic(source), engine=engine)
    runtime = CgcmRuntime(machine)
    runtime.declare_all_globals()
    code = machine.run()
    return machine, code


class TestGridExecution:
    engine = "tree"

    def test_every_thread_runs(self):
        machine, code = run_with_runtime(self.engine, """
        long hits[32];
        __global__ void mark(long tid, long *h) { h[tid] = tid + 1; }
        int main(void) {
            long *d = (long *) map((char *) hits);
            __launch(mark, 32, d);
            unmap((char *) hits);
            release((char *) hits);
            long total = 0;
            for (int i = 0; i < 32; i++) total += hits[i];
            print_i64(total);
            return 0;
        }""")
        assert machine.stdout == [str(sum(range(1, 33)))]

    def test_zero_grid_runs_no_threads(self):
        machine, code = run_with_runtime(self.engine, """
        long hits[4];
        __global__ void mark(long tid, long *h) { h[tid] = 1; }
        int main(void) {
            long *d = (long *) map((char *) hits);
            __launch(mark, 0, d);
            unmap((char *) hits);
            release((char *) hits);
            print_i64(hits[0]);
            return 0;
        }""")
        assert machine.stdout == ["0"]

    def test_kernel_allocas_are_thread_private(self):
        machine, code = run_with_runtime(self.engine, """
        double out[8];
        __global__ void work(long tid, double *o) {
            double acc = 0.0;
            for (int k = 0; k <= tid; k++) acc += 1.0;
            o[tid] = acc;
        }
        int main(void) {
            double *d = (double *) map((char *) out);
            __launch(work, 8, d);
            unmap((char *) out);
            release((char *) out);
            print_f64(out[7]);
            print_f64(out[0]);
            return 0;
        }""")
        assert machine.stdout == ["8", "1"]

    def test_kernel_reads_global_scalar_from_named_region(self):
        """Globals referenced in kernels resolve via cuModuleGetGlobal."""
        machine, code = run_with_runtime(self.engine, """
        double factor;
        double xs[4];
        __global__ void scale(long tid, double *x) {
            x[tid] = x[tid] * factor;
        }
        int main(void) {
            factor = 3.0;
            for (int i = 0; i < 4; i++) xs[i] = i + 1;
            map((char *) &factor);
            double *d = (double *) map((char *) xs);
            __launch(scale, 4, d);
            unmap((char *) xs);
            release((char *) xs);
            release((char *) &factor);
            print_f64(xs[3]);
            return 0;
        }""")
        assert machine.stdout == ["12"]


class TestIsolation:
    engine = "tree"

    def test_kernel_cannot_touch_host_memory(self):
        machine = Machine(compile_minic("""
        double xs[4];
        __global__ void bad(long tid, double *x) { x[tid] = 1.0; }
        int main(void) {
            /* Pass the raw host pointer without mapping. */
            __launch(bad, 4, xs);
            return 0;
        }"""), engine=self.engine)
        with pytest.raises(MemoryFault):
            machine.run()

    def test_host_cannot_dereference_device_pointer(self):
        machine, code = None, None
        machine = Machine(compile_minic("""
        double xs[4];
        int main(void) {
            double *d = (double *) map((char *) xs);
            return (int) *d;   /* CPU deref of GPU pointer */
        }"""), engine=self.engine)
        CgcmRuntime(machine).declare_all_globals()
        runtime = CgcmRuntime(machine)
        runtime.declare_all_globals()
        with pytest.raises(MemoryFault):
            machine.run()

    def test_kernel_storing_pointer_rejected(self):
        machine = Machine(compile_minic("""
        char *slots[4];
        __global__ void bad(long tid, char **s) { s[tid] = (char *) s; }
        int main(void) {
            char **d = (char **) mapArray((char *) slots);
            __launch(bad, 4, d);
            return 0;
        }"""), engine=self.engine)
        CgcmRuntime(machine).declare_all_globals()
        with pytest.raises(CgcmUnsupportedError, match="pointer"):
            machine.run()

    def test_kernel_cannot_call_host_externals(self):
        machine = Machine(compile_minic("""
        __global__ void bad(long tid) { print_i64(tid); }
        int main(void) { __launch(bad, 1); return 0; }"""),
            engine=self.engine)
        with pytest.raises(InterpError, match="host-only"):
            machine.run()


class TestTimingModel:
    engine = "tree"

    def test_gpu_time_accounts_launch_latency(self):
        machine, _ = run_with_runtime(self.engine, """
        double xs[4];
        __global__ void nop(long tid, double *x) { }
        int main(void) {
            double *d = (double *) map((char *) xs);
            __launch(nop, 4, d);
            __launch(nop, 4, d);
            unmap((char *) xs);
            release((char *) xs);
            return 0;
        }""")
        model = machine.clock.model
        assert machine.clock.gpu_seconds >= 2 * model.kernel_launch_latency_s
        assert machine.clock.counters["kernel_launches"] == 2

    def test_wide_grids_amortize(self):
        """GPU time grows sublinearly until the cores saturate."""
        def gpu_time(grid):
            machine, _ = run_with_runtime(self.engine, f"""
            double xs[{grid}];
            __global__ void work(long tid, double *x) {{
                double a = 0.0;
                for (int i = 0; i < 20; i++) a += 1.0;
                x[tid] = a;
            }}
            int main(void) {{
                double *d = (double *) map((char *) xs);
                __launch(work, {grid}, d);
                unmap((char *) xs);
                release((char *) xs);
                return 0;
            }}""")
            return machine.clock.gpu_seconds
        # 64 threads fit in the 480-core machine alongside 1 thread:
        # per-thread critical path dominates, so times are equal.
        assert gpu_time(64) == pytest.approx(gpu_time(1), rel=0.05)

    def test_comm_time_scales_with_bytes(self):
        def comm_time(n):
            machine, _ = run_with_runtime(self.engine, f"""
            double xs[{n}];
            __global__ void nop(long tid, double *x) {{ }}
            int main(void) {{
                double *d = (double *) map((char *) xs);
                __launch(nop, 1, d);
                unmap((char *) xs);
                release((char *) xs);
                return 0;
            }}""")
            return machine.clock.comm_seconds
        assert comm_time(4096) > comm_time(4)


@pytest.mark.usefixtures("compile_all")
class TestGridExecutionOnSource(TestGridExecution):
    engine = "source"


@pytest.mark.usefixtures("compile_all")
class TestIsolationOnSource(TestIsolation):
    engine = "source"


@pytest.mark.usefixtures("compile_all")
class TestTimingModelOnSource(TestTimingModel):
    engine = "source"
