"""End-to-end MiniC programs: richer language-feature coverage."""

import pytest

from repro.frontend import compile_minic
from repro.interp import Machine
from repro.interp.machine import ENGINES, hot_ratio


def run(source):
    machine = Machine(compile_minic(source))
    code = machine.run()
    return code, machine.stdout


class TestAlgorithms:
    def test_insertion_sort(self):
        _, out = run("""
        long data[10];
        int main(void) {
            long seed = 7;
            for (int i = 0; i < 10; i++) {
                seed = (seed * 131 + 17) % 1000;
                data[i] = seed;
            }
            for (int i = 1; i < 10; i++) {
                long key = data[i];
                int j = i - 1;
                while (j >= 0 && data[j] > key) {
                    data[j + 1] = data[j];
                    j--;
                }
                data[j + 1] = key;
            }
            for (int i = 1; i < 10; i++)
                if (data[i - 1] > data[i]) print_str("UNSORTED");
            print_i64(data[0]);
            print_i64(data[9]);
            return 0;
        }""")
        assert "UNSORTED" not in out
        assert int(out[0]) <= int(out[1])

    def test_string_reverse(self):
        _, out = run("""
        int main(void) {
            char buffer[16] = "minic!";
            long n = 0;
            while (buffer[n] != 0) n++;
            for (int i = 0; i < n / 2; i++) {
                char tmp = buffer[i];
                buffer[i] = buffer[n - 1 - i];
                buffer[n - 1 - i] = tmp;
            }
            print_str(buffer);
            return 0;
        }""")
        assert out == ["!cinim"]

    def test_linked_structure_via_indices(self):
        _, out = run("""
        struct node { double value; long next; };
        struct node pool[8];
        int main(void) {
            /* build a list 0 -> 3 -> 6 -> end */
            pool[0].value = 1.5; pool[0].next = 3;
            pool[3].value = 2.5; pool[3].next = 6;
            pool[6].value = 4.0; pool[6].next = -1;
            double total = 0.0;
            long cursor = 0;
            while (cursor >= 0) {
                total += pool[cursor].value;
                cursor = pool[cursor].next;
            }
            print_f64(total);
            return 0;
        }""")
        assert out == ["8"]

    def test_matrix_transpose_in_place(self):
        _, out = run("""
        double m[4][4];
        int main(void) {
            for (int i = 0; i < 4; i++)
                for (int j = 0; j < 4; j++)
                    m[i][j] = i * 10 + j;
            for (int i = 0; i < 4; i++)
                for (int j = i + 1; j < 4; j++) {
                    double tmp = m[i][j];
                    m[i][j] = m[j][i];
                    m[j][i] = tmp;
                }
            print_f64(m[0][3]);
            print_f64(m[3][0]);
            return 0;
        }""")
        assert out == ["30", "3"]

    def test_binary_search(self):
        _, out = run("""
        long xs[16];
        long find(long target) {
            long lo = 0;
            long hi = 15;
            while (lo <= hi) {
                long mid = (lo + hi) / 2;
                if (xs[mid] == target) return mid;
                if (xs[mid] < target) lo = mid + 1;
                else hi = mid - 1;
            }
            return -1;
        }
        int main(void) {
            for (int i = 0; i < 16; i++) xs[i] = i * 3;
            print_i64(find(21));
            print_i64(find(22));
            print_i64(find(0));
            print_i64(find(45));
            return 0;
        }""")
        assert out == ["7", "-1", "0", "15"]


class TestPointerIdioms:
    def test_swap_through_pointers(self):
        _, out = run("""
        void swap(double *a, double *b) {
            double tmp = *a;
            *a = *b;
            *b = tmp;
        }
        int main(void) {
            double x = 1.0;
            double y = 2.0;
            swap(&x, &y);
            print_f64(x);
            print_f64(y);
            return 0;
        }""")
        assert out == ["2", "1"]

    def test_out_parameters(self):
        _, out = run("""
        void minmax(double *xs, long n, double *lo, double *hi) {
            *lo = xs[0];
            *hi = xs[0];
            for (int i = 1; i < n; i++) {
                if (xs[i] < *lo) *lo = xs[i];
                if (xs[i] > *hi) *hi = xs[i];
            }
        }
        int main(void) {
            double data[5] = {3.0, -1.0, 4.0, 1.0, 5.0};
            double lo, hi;
            minmax(data, 5, &lo, &hi);
            print_f64(lo);
            print_f64(hi);
            return 0;
        }""")
        assert out == ["-1", "5"]

    def test_pointer_walk(self):
        _, out = run("""
        int main(void) {
            char text[12] = "count me";
            char *p = text;
            long letters = 0;
            while (*p != 0) {
                if (*p != ' ') letters++;
                p++;
            }
            print_i64(letters);
            return 0;
        }""")
        assert out == ["7"]

    def test_function_returning_pointer(self):
        _, out = run("""
        double table[8];
        double *slot(long i) { return &table[i]; }
        int main(void) {
            *slot(3) = 9.5;
            print_f64(table[3]);
            return 0;
        }""")
        assert out == ["9.5"]


class TestControlEdgeCases:
    def test_do_while_executes_once(self):
        _, out = run("""
        int main(void) {
            long n = 0;
            do { n++; } while (n < 0);
            print_i64(n);
            return 0;
        }""")
        assert out == ["1"]

    def test_deeply_nested_breaks(self):
        _, out = run("""
        int main(void) {
            long found = -1;
            for (int i = 0; i < 5 && found < 0; i++) {
                for (int j = 0; j < 5; j++) {
                    if (i * j == 6) { found = i * 10 + j; break; }
                }
            }
            print_i64(found);
            return 0;
        }""")
        assert out == ["23"]

    def test_comma_operator(self):
        _, out = run("""
        int main(void) {
            long a = 0;
            long b = 0;
            for (int i = 0; i < 3; i++, a += 2)
                b++;
            print_i64(a);
            print_i64(b);
            return 0;
        }""")
        assert out == ["6", "3"]

    def test_ternary_chains(self):
        _, out = run("""
        long grade(long score) {
            return score >= 90 ? 4 : score >= 80 ? 3
                 : score >= 70 ? 2 : score >= 60 ? 1 : 0;
        }
        int main(void) {
            print_i64(grade(95));
            print_i64(grade(75));
            print_i64(grade(10));
            return 0;
        }""")
        assert out == ["4", "2", "0"]

    def test_early_return_in_loop(self):
        _, out = run("""
        long first_factor(long n) {
            for (long d = 2; d * d <= n; d++)
                if (n % d == 0) return d;
            return n;
        }
        int main(void) {
            print_i64(first_factor(91));
            print_i64(first_factor(97));
            return 0;
        }""")
        assert out == ["7", "97"]


class TestUnreachableJoins:
    """A join that no edge reaches -- after an ``if`` whose arms both
    return, a ``for`` body that always returns, or a ``for (;;)`` --
    is dropped by the lowering instead of failing verification."""

    PROGRAMS = {
        "if-else-both-return": ("""
        long f(long n) { if (n > 0) { return 1; } else { return 2; } }
        int main(void) {
            print_i64(f(3));
            print_i64(f(-3));
            return 0;
        }""", ["1", "2"]),
        "for-body-returns": ("""
        long f(long n) {
            for (long i = 0; i < n; i++) { return i + 7; }
            return 0;
        }
        int main(void) {
            print_i64(f(3));
            print_i64(f(0));
            return 0;
        }""", ["7", "0"]),
        "endless-for": ("""
        long f(long n) { for (;;) { if (n > 3) return n; n = n + 1; } }
        int main(void) {
            print_i64(f(0));
            print_i64(f(9));
            return 0;
        }""", ["4", "9"]),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_program_runs(self, name, engine):
        source, expected = self.PROGRAMS[name]
        with hot_ratio(0):
            machine = Machine(compile_minic(source), engine=engine)
            assert machine.run() == 0
        assert machine.stdout == expected
