"""Table 1: comparison between communication systems.

The paper's feature matrix contrasts JCUDA, named regions, the affine
technique, inspector-executor, and CGCM along: communication
optimization, required annotations, applicability (aliasing pointers,
irregular accesses, weak type systems, pointer arithmetic, max
indirection), and acyclic communication.

The static rows reproduce the published matrix; ``demonstrate_cgcm``
*executes* a micro-program for each applicability axis through the full
CGCM pipeline, proving the claimed cells rather than asserting them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.compiler import CgcmCompiler
from ..core.config import CgcmConfig, OptLevel


@dataclass(frozen=True)
class Table1Row:
    framework: str
    optimizes_communication: bool
    requires_annotations: bool
    aliasing_pointers: bool
    irregular_accesses: bool
    weak_type_systems: bool
    pointer_arithmetic: bool
    max_indirection: int
    acyclic_communication: str


#: The published matrix (paper Table 1).
TABLE1 = (
    Table1Row("JCUDA", False, True, True, True, False, False, 8, "No"),
    Table1Row("Named Regions", False, True, True, False, True, False, 1,
              "No"),
    Table1Row("Affine", False, True, True, False, False, True, 1,
              "With Annotation"),
    Table1Row("Inspector-Executor", False, True, False, True, True,
              False, 1, "No"),
    Table1Row("CGCM", True, False, True, True, True, True, 2,
              "After Optimization"),
)


#: Micro-programs exercising each applicability axis of Table 1.  Each
#: prints a checksum; CGCM must compile and run every one of them with
#: results identical to sequential execution.
FEATURE_PROGRAMS: Dict[str, str] = {
    "aliasing_pointers": r"""
        double data[32];
        __global__ void bump(long tid, double *a, double *b) {
            a[tid] = a[tid] + b[tid + 16];
        }
        int main(void) {
            for (int i = 0; i < 32; i++) data[i] = i;
            double *lo = data;        /* two aliasing views of one */
            double *hi = data;        /* allocation unit            */
            __launch(bump, 16, lo, hi);
            double s = 0.0;
            for (int i = 0; i < 32; i++) s += data[i];
            print_f64(s);
            return 0;
        }
    """,
    "irregular_accesses": r"""
        double values[32];
        double gathered[16];
        long index[16];
        __global__ void gather(long tid, double *out) {
            out[tid] = values[index[tid]];
        }
        int main(void) {
            for (int i = 0; i < 32; i++) values[i] = i * 1.5;
            for (int i = 0; i < 16; i++) index[i] = (i * 7 + 3) % 32;
            __launch(gather, 16, gathered);
            double s = 0.0;
            for (int i = 0; i < 16; i++) s += gathered[i];
            print_f64(s);
            return 0;
        }
    """,
    "weak_type_systems": r"""
        double payload[16];
        __global__ void poke(long tid, long disguised) {
            /* the pointer arrives as a long; usage reveals the type */
            double *p = (double *) disguised;
            p[tid] = p[tid] * 2.0;
        }
        int main(void) {
            for (int i = 0; i < 16; i++) payload[i] = i + 1;
            __launch(poke, 16, (long) payload);
            double s = 0.0;
            for (int i = 0; i < 16; i++) s += payload[i];
            print_f64(s);
            return 0;
        }
    """,
    "pointer_arithmetic": r"""
        double block[48];
        __global__ void shift(long tid, double *mid) {
            /* interior pointer, negative and positive offsets */
            mid[tid - 8] = mid[tid] + *(mid + tid - 16);
        }
        int main(void) {
            for (int i = 0; i < 48; i++) block[i] = i * 0.5;
            double *interior = block + 16;
            __launch(shift, 16, interior);
            double s = 0.0;
            for (int i = 0; i < 48; i++) s += block[i];
            print_f64(s);
            return 0;
        }
    """,
    "double_indirection": r"""
        char *rows[8];
        __global__ void fill(long tid, char **rs) {
            char *row = rs[tid];
            for (int i = 0; i < 4; i++) row[i] = (char) (tid + i);
        }
        int main(void) {
            for (int r = 0; r < 8; r++)
                rows[r] = (char *) malloc(8);
            __launch(fill, 8, rows);
            long s = 0;
            for (int r = 0; r < 8; r++)
                for (int i = 0; i < 4; i++) s += rows[r][i];
            print_i64(s);
            return 0;
        }
    """,
}


def demonstrate_cgcm() -> Dict[str, bool]:
    """Run each feature micro-program under unoptimized and optimized
    CGCM; True means CGCM managed the feature's communication and the
    optimizations preserved the observable output.

    (These programs launch kernels explicitly, so there is no CPU-only
    configuration to compare against: managed-vs-managed is the claim
    Table 1 makes.)
    """
    outcome: Dict[str, bool] = {}
    for feature, source in FEATURE_PROGRAMS.items():
        unopt = CgcmCompiler(CgcmConfig(opt_level=OptLevel.UNOPTIMIZED))
        opt = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED))
        try:
            unopt_result = unopt.execute(
                unopt.compile_source(source, feature))
            opt_result = opt.execute(opt.compile_source(source, feature))
            outcome[feature] = (bool(unopt_result.stdout)
                                and unopt_result.stdout
                                == opt_result.stdout)
        except Exception:
            outcome[feature] = False
    return outcome


def render_table1() -> str:
    headers = ["Framework", "Opt.", "Annot.", "Alias", "Irreg.", "Weak",
               "PtrArith", "MaxInd", "Acyclic"]
    lines = ["  ".join(f"{h:>18s}" if i == 0 else f"{h:>8s}"
                       for i, h in enumerate(headers))]
    for row in TABLE1:
        cells = [
            f"{row.framework:>18s}",
            f"{'yes' if row.optimizes_communication else 'no':>8s}",
            f"{'yes' if row.requires_annotations else 'no':>8s}",
            f"{'yes' if row.aliasing_pointers else 'no':>8s}",
            f"{'yes' if row.irregular_accesses else 'no':>8s}",
            f"{'yes' if row.weak_type_systems else 'no':>8s}",
            f"{'yes' if row.pointer_arithmetic else 'no':>8s}",
            f"{row.max_indirection:>8d}",
            f"{row.acyclic_communication:>8s}",
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)
