"""Interpreter semantics tests: arithmetic, memory, control flow."""

import pytest

from repro.errors import InterpError, MemoryFault
from repro.frontend import compile_minic
from repro.interp import Machine
from repro.interp.machine import ENGINES
from repro.ir import parse_module


def run(source: str):
    machine = Machine(compile_minic(source))
    code = machine.run()
    return code, machine.stdout


class TestIntegerSemantics:
    def test_truncating_division(self):
        code, out = run("""
        int main(void) {
            print_i64(7 / 2);
            print_i64(-7 / 2);
            print_i64(7 % 2);
            print_i64(-7 % 2);
            return 0;
        }""")
        assert out == ["3", "-3", "1", "-1"]  # C semantics, not Python

    def test_division_by_zero_traps(self):
        machine = Machine(compile_minic(
            "int main(void) { int z = 0; return 1 / z; }"))
        with pytest.raises(InterpError, match="division by zero"):
            machine.run()

    def test_wraparound(self):
        code, out = run("""
        int main(void) {
            char c = 127;
            c = c + 1;
            print_i64(c);
            return 0;
        }""")
        assert out == ["-128"]

    def test_shifts_and_bitops(self):
        code, out = run("""
        int main(void) {
            print_i64(1 << 10);
            print_i64(-8 >> 1);
            print_i64(12 & 10);
            print_i64(12 | 10);
            print_i64(12 ^ 10);
            print_i64(~0);
            return 0;
        }""")
        assert out == ["1024", "-4", "8", "14", "6", "-1"]


class TestFloatSemantics:
    def test_float_div_by_zero_is_inf(self):
        code, out = run("""
        int main(void) {
            double z = 0.0;
            double r = 1.0 / z;
            print_i64(r > 1e308);
            return 0;
        }""")
        assert out == ["1"]

    def test_f32_rounding_through_memory(self):
        code, out = run("""
        float f;
        int main(void) {
            f = 0.1;
            print_i64(f == 0.1);
            return 0;
        }""")
        assert out == ["0"]  # f32 0.1 != f64 0.1

    def test_math_externals(self):
        code, out = run("""
        int main(void) {
            print_f64(sqrt(16.0));
            print_f64(fabs(-2.5));
            print_f64(pow(2.0, 10.0));
            print_f64(fmax(1.0, 3.0));
            return 0;
        }""")
        assert out == ["4", "2.5", "1024", "3"]


class TestFloat32Overflow:
    """A finite value beyond binary32's range becomes +/-inf wherever
    it is encoded as f32 -- stack slot, global element, cold store
    site, cast, initializer -- on every engine."""

    PROGRAMS = {
        "local_loop": (r"""
            int main(void) {
                float x = 1.0f;
                for (int i = 0; i < 3; i++) x = x * 1e30f;
                print_f64(x);
                return 0;
            }""", "inf"),
        "global_loop": (r"""
            float G[2];
            int main(void) {
                G[1] = 1.0f;
                for (int i = 0; i < 3; i++) G[1] = G[1] * 1e30f;
                print_f64(G[1]);
                return 0;
            }""", "inf"),
        "cold_store": (r"""
            int main(void) {
                float a[1];
                a[0] = 1e30f;
                a[0] = a[0] * -1e30f;
                print_f64(a[0]);
                return 0;
            }""", "-inf"),
        "cast": (r"""
            int main(void) {
                double d = 1e300;
                print_f64((float) d);
                return 0;
            }""", "inf"),
        "initializer": (r"""
            float G = 1e300;
            int main(void) {
                print_f64(G);
                return 0;
            }""", "inf"),
    }

    @pytest.mark.usefixtures("compile_all")
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_overflow_becomes_inf(self, name, engine):
        source, expected = self.PROGRAMS[name]
        machine = Machine(compile_minic(source), engine=engine)
        assert machine.run() == 0
        assert machine.stdout == [expected]


class TestControlFlow:
    def test_nested_loops_with_break_continue(self):
        code, out = run("""
        int main(void) {
            long total = 0;
            for (int i = 0; i < 10; i++) {
                if (i == 7) break;
                if (i % 2 == 0) continue;
                total += i;
            }
            print_i64(total);
            return 0;
        }""")
        assert out == ["9"]  # 1 + 3 + 5

    def test_short_circuit_evaluation(self):
        code, out = run("""
        long calls = 0;
        long bump(void) { calls++; return 1; }
        int main(void) {
            long a = 0 && bump();
            long b = 1 || bump();
            print_i64(calls);
            print_i64(a);
            print_i64(b);
            return 0;
        }""")
        assert out == ["0", "0", "1"]

    def test_recursion(self):
        code, out = run("""
        long fib(long n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) { print_i64(fib(15)); return 0; }""")
        assert out == ["610"]

    def test_runaway_recursion_trapped(self):
        machine = Machine(compile_minic("""
        long spin(long n) { return spin(n + 1); }
        int main(void) { return (int) spin(0); }"""))
        with pytest.raises(InterpError, match="call depth"):
            machine.run()

    def test_exit_external(self):
        code, out = run("""
        int main(void) {
            print_i64(1);
            exit(42);
            print_i64(2);
            return 0;
        }""")
        assert code == 42
        assert out == ["1"]


class TestMemoryBehaviour:
    def test_pointer_arithmetic_and_aliasing(self):
        code, out = run("""
        double grid[3][4];
        int main(void) {
            double *flat = &grid[0][0];
            flat[7] = 9.5;              /* aliases grid[1][3] */
            print_f64(grid[1][3]);
            double *row = grid[2];
            row[1] = -1.0;
            print_f64(grid[2][1]);
            print_i64(&grid[2][1] - flat);
            return 0;
        }""")
        assert out == ["9.5", "-1", "9"]

    def test_heap_workflow(self):
        code, out = run("""
        int main(void) {
            long *xs = (long *) malloc(10 * sizeof(long));
            for (int i = 0; i < 10; i++) xs[i] = i * i;
            long total = 0;
            for (int i = 0; i < 10; i++) total += xs[i];
            free(xs);
            print_i64(total);
            return 0;
        }""")
        assert out == ["285"]

    def test_memcpy_memset(self):
        code, out = run("""
        int main(void) {
            char *a = (char *) malloc(8);
            char *b = (char *) malloc(8);
            memset(a, 7, 8);
            memcpy(b, a, 8);
            print_i64(b[5]);
            return 0;
        }""")
        assert out == ["7"]

    def test_struct_access(self):
        code, out = run("""
        struct point { double x; double y; long tag; };
        struct point pts[4];
        int main(void) {
            pts[2].x = 1.5;
            pts[2].tag = 9;
            struct point *p = &pts[2];
            print_f64(p->x);
            print_i64(p->tag);
            return 0;
        }""")
        assert out == ["1.5", "9"]

    def test_wild_pointer_faults(self):
        machine = Machine(compile_minic("""
        int main(void) {
            long *p = (long *) 64;
            return (int) *p;
        }"""))
        with pytest.raises(MemoryFault):
            machine.run()


class TestStackLimit:
    """An allocation that would pass its stack segment's limit faults
    before the stack pointer moves, though the next segment may start
    right at the limit (the device heap follows the device stack)."""

    def test_kernel_alloca_past_the_device_stack_faults(self):
        from repro.runtime import CgcmRuntime
        machine = Machine(compile_minic("""
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
            return 0;
        }"""))
        CgcmRuntime(machine).declare_all_globals()
        with pytest.raises(MemoryFault, match=r"^device-stack overflow: "
                           r"512 bytes at 0xd6000000 pass its limit "):
            machine.run()
        assert machine.device.memory.segment("device-heap").data \
            == bytearray()

    def test_cpu_alloca_past_the_stack_faults(self):
        machine = Machine(compile_minic("""
        int main(void) {
            char pad[67108848];
            double more[64];
            more[0] = 1.0;
            return (int) more[0];
        }"""))
        with pytest.raises(MemoryFault, match=r"^stack overflow: 512 bytes"):
            machine.run()

    def test_declared_alloca_stops_at_the_limit(self):
        machine = Machine(compile_minic("int main(void) { return 0; }"))
        limit = machine.cpu_memory.segment("stack").limit
        machine._cpu_sp = limit - 40
        assert machine.stack_allocate(24) == limit - 32
        with pytest.raises(MemoryFault, match="stack overflow: 1 bytes"):
            machine.stack_allocate(1)
        assert machine._cpu_sp == limit - 8


class TestDeterminism:
    def test_rng_is_deterministic(self):
        results = []
        for _ in range(2):
            code, out = run("""
            int main(void) {
                srand(42);
                for (int i = 0; i < 3; i++) print_i64(rand_i64(1000));
                return 0;
            }""")
            results.append(out)
        assert results[0] == results[1]

    def test_clock_is_deterministic(self):
        source = "int main(void) { for (int i = 0; i < 50; i++) ; return 0; }"
        m1 = Machine(compile_minic(source))
        m2 = Machine(compile_minic(source))
        m1.run()
        m2.run()
        assert m1.clock.snapshot() == m2.clock.snapshot()
        assert m1.clock.cpu_seconds > 0


class TestActiveMemoryCache:
    """``Machine.memory`` is cached on mode switches (hot-path opt)."""

    def test_mode_setter_switches_address_space(self):
        machine = Machine(compile_minic("int main(void) { return 0; }"))
        assert machine.memory is machine.cpu_memory
        machine.mode = "gpu"
        assert machine.memory is machine.device.memory
        machine.mode = "cpu"
        assert machine.memory is machine.cpu_memory

    def test_device_and_host_stay_separate(self):
        """Regression: the cache must never blur the address spaces."""
        machine = Machine(compile_minic("int main(void) { return 0; }"))
        from repro.ir import I64
        host_addr = machine.cpu_memory.segment("heap").base
        machine.memory.store_scalar(host_addr, I64, 111)
        machine.mode = "gpu"
        device_addr = machine.device.memory.segment("device-heap").base \
            if any(s.name == "device-heap"
                   for s in machine.device.memory.segments) \
            else machine.device.memory.segments[0].base
        machine.memory.store_scalar(device_addr, I64, 222)
        # A host address dereferenced through the (cached) GPU space
        # must still fault, exactly as before the optimization.
        with pytest.raises(MemoryFault):
            machine.memory.load_scalar(host_addr, I64)
        machine.mode = "cpu"
        assert machine.memory.load_scalar(host_addr, I64) == 111
        with pytest.raises(MemoryFault):
            machine.memory.load_scalar(device_addr, I64)

    def test_undefined_register_read_raises(self):
        """Tree-walker runtime guard (the source engine's compile-time
        check is ``test_srcgen.py::TestCompileTimeChecks``)."""
        from repro.ir import FunctionType, I64, IRBuilder, Module
        module = Module("m")
        fn = module.add_function("main", FunctionType(I64, []))
        entry = fn.new_block("entry")
        skip = fn.new_block("skip")
        join = fn.new_block("join")
        b = IRBuilder(entry)
        b.cbr(b.cmp("eq", b.const(I64, 0), 1), skip, join)
        b.position_at_end(skip)
        ghost = b.add(b.const(I64, 1), 1)
        b.br(join)
        b.position_at_end(join)
        b.ret(ghost)
        machine = Machine(module, engine="tree")
        with pytest.raises(InterpError, match="undefined register"):
            machine.run()
