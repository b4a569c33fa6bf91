"""Tests for the external-function table."""

import pytest

from repro.errors import InterpError
from repro.frontend import compile_minic
from repro.interp import Machine
from repro.interp.externals import (GPU_SAFE, call_cost,
                                    external_signatures)


def run(source):
    machine = Machine(compile_minic(source))
    code = machine.run()
    return code, machine.stdout


class TestSignatures:
    def test_every_external_has_handler_and_signature(self):
        machine = Machine(compile_minic("int main(void) { return 0; }"))
        signatures = external_signatures()
        assert set(machine.externals) == set(signatures)

    def test_gpu_safe_is_subset(self):
        assert GPU_SAFE <= set(external_signatures())

    def test_call_costs_positive(self):
        for name in external_signatures():
            assert call_cost(name) > 0

    def test_each_machine_gets_its_own_table(self):
        """The built-in handlers are made once and shared, but each
        machine's table is its own: a handler registered on one
        machine is absent from the next."""
        module = compile_minic("int main(void) { return 0; }")
        first, second = Machine(module), Machine(module)
        first.externals["map"] = lambda machine, args: 0
        assert "map" not in second.externals
        assert first.externals["sqrt"] is second.externals["sqrt"]


class TestMathFunctions:
    def test_trigonometry(self):
        _, out = run("""
        int main(void) {
            print_f64(sin(0.0));
            print_f64(cos(0.0));
            print_f64(tan(0.0));
            print_f64(atan(1.0) * 4.0);
            return 0;
        }""")
        assert out[0] == "0"
        assert out[1] == "1"
        assert out[2] == "0"
        assert abs(float(out[3]) - 3.14159) < 1e-4

    def test_exponentials(self):
        _, out = run("""
        int main(void) {
            print_f64(exp(0.0));
            print_f64(log(1.0));
            print_f64(exp2(10.0));
            return 0;
        }""")
        assert out == ["1", "0", "1024"]

    def test_rounding(self):
        _, out = run("""
        int main(void) {
            print_f64(floor(2.7));
            print_f64(ceil(2.2));
            print_f64(floor(-2.7));
            return 0;
        }""")
        assert out == ["2", "3", "-3"]

    def test_domain_error_raises(self):
        machine = Machine(compile_minic(
            "int main(void) { double z = -1.0; print_f64(sqrt(z)); "
            "return 0; }"))
        with pytest.raises(InterpError, match="domain"):
            machine.run()

    def test_abs_i64(self):
        _, out = run("""
        int main(void) {
            print_i64(abs_i64(-42));
            print_i64(abs_i64(42));
            return 0;
        }""")
        assert out == ["42", "42"]


class TestAllocationFunctions:
    def test_calloc_zeroes(self):
        _, out = run("""
        int main(void) {
            long *xs = (long *) calloc(4, 8);
            print_i64(xs[0] + xs[3]);
            free(xs);
            return 0;
        }""")
        assert out == ["0"]

    def test_realloc_preserves_data(self):
        _, out = run("""
        int main(void) {
            long *xs = (long *) malloc(2 * 8);
            xs[0] = 11;
            xs[1] = 22;
            xs = (long *) realloc(xs, 8 * 8);
            xs[7] = 77;
            print_i64(xs[0] + xs[1] + xs[7]);
            free(xs);
            return 0;
        }""")
        assert out == ["110"]

    def test_heap_hooks_fire(self):
        machine = Machine(compile_minic("""
        int main(void) {
            char *p = (char *) malloc(32);
            free(p);
            return 0;
        }"""))
        events = []
        machine.heap_hooks.append(
            lambda m, kind, addr, size: events.append((kind, size)))
        machine.run()
        assert ("malloc", 32) in events
        assert events[-1][0] == "free"


class TestRng:
    def test_bounded(self):
        _, out = run("""
        int main(void) {
            srand(99);
            for (int i = 0; i < 20; i++) {
                long v = rand_i64(10);
                if (v < 0) print_str("NEGATIVE");
                if (v >= 10) print_str("TOO BIG");
            }
            print_str("done");
            return 0;
        }""")
        assert out == ["done"]

    def test_rand_f64_in_unit_interval(self):
        machine = Machine(compile_minic("int main(void) { return 0; }"))
        machine.run()
        for _ in range(100):
            value = machine.externals["rand_f64"](machine, [])
            assert 0.0 <= value < 1.0

    def test_bad_bound_raises(self):
        machine = Machine(compile_minic(
            "int main(void) { rand_i64(0); return 0; }"))
        with pytest.raises(InterpError, match="positive"):
            machine.run()

    def test_seed_changes_stream(self):
        def stream(seed):
            machine = Machine(compile_minic(f"""
            int main(void) {{
                srand({seed});
                print_i64(rand_i64(1000000));
                return 0;
            }}"""))
            machine.run()
            return machine.stdout
        assert stream(1) != stream(2)


class TestPrinting:
    def test_float_formatting(self):
        _, out = run("""
        int main(void) {
            print_f64(1.0);
            print_f64(0.5);
            print_f64(-1234.25);
            print_f64(1e20);
            return 0;
        }""")
        assert out == ["1", "0.5", "-1234.25", "1e+20"]

    def test_string_and_int(self):
        _, out = run("""
        int main(void) {
            print_str("value:");
            print_i64(-7);
            return 0;
        }""")
        assert out == ["value:", "-7"]
