"""Built-in request mixes for the serve driver, bench, and tests.

Three small MiniC programs share one 4 KiB ``const double`` table
(byte-identical content under the same global name), so concurrent
requests -- even of *different* programs -- exercise the cross-request
shared-mapping path.  Each program takes one ``__ARG0__`` placeholder,
so one source fans out into several distinct artifacts and the cache
sees both hits and misses.

``QUOTA_SOURCE`` allocates constant-size heap buffers, giving the
tenant-quota machinery something the device-heap cap actually governs
(globals live in the module segment, outside the cuMemAlloc arena).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .request import ServeRequest

#: Elements in the shared read-only table (4 KiB of doubles).
TABLE_SIZE = 512


def _table_literal() -> str:
    return ", ".join(f"{(i * 37 % 97) / 97.0:.6f}"
                     for i in range(TABLE_SIZE))


_TABLE_DECL = (f"const double W[{TABLE_SIZE}] = "
               f"{{{_table_literal()}}};\n")

#: data * W + bias, three sweeps (maps W plus two mutable arrays).
SMOOTH_SOURCE = _TABLE_DECL + r"""
double data[512];
double out[512];
int main(void) {
    for (int i = 0; i < 512; i++) data[i] = 0.001 * i + __ARG0__;
    for (int rep = 0; rep < 3; rep++) {
        for (int i = 0; i < 512; i++) out[i] = data[i] * W[i] + 0.25;
        for (int i = 0; i < 512; i++) data[i] = out[i];
    }
    double s = 0.0;
    for (int i = 0; i < 512; i++) s += data[i];
    print_f64(s);
    return 0;
}
"""

#: Two-array elementwise chain against the same table.
SCALE_SOURCE = _TABLE_DECL + r"""
double a[512];
double b[512];
int main(void) {
    for (int i = 0; i < 512; i++) {
        a[i] = 0.5 + 0.002 * i;
        b[i] = __ARG0__;
    }
    for (int rep = 0; rep < 2; rep++) {
        for (int i = 0; i < 512; i++) b[i] = b[i] + a[i] * W[i];
        for (int i = 0; i < 512; i++) a[i] = a[i] * 0.75 + W[i];
    }
    double s = 0.0;
    for (int i = 0; i < 512; i++) s += a[i] + b[i];
    print_f64(s);
    return 0;
}
"""

#: Table-weighted square then a CPU-side reduction.
DOTNORM_SOURCE = _TABLE_DECL + r"""
double v[512];
double w2[512];
int main(void) {
    for (int i = 0; i < 512; i++) v[i] = __ARG0__ - 0.003 * i;
    for (int i = 0; i < 512; i++) w2[i] = v[i] * v[i] * W[i];
    double norm = 0.0;
    for (int i = 0; i < 512; i++) norm += w2[i];
    print_f64(norm);
    return 0;
}
"""

#: Constant-size heap buffers: the device-heap quota actually binds.
#: Two 16 KiB blocks plus one 8 KiB block cycle through three launch
#: rounds, so a 24 KiB tenant quota forces LRU eviction and anything
#: under 16 KiB is rejected by the strict heap-limit check.
QUOTA_SOURCE = r"""
int main(void) {
    double *a = (double *) malloc(16384);
    double *b = (double *) malloc(16384);
    double *c = (double *) malloc(8192);
    for (int i = 0; i < 2048; i++) {
        a[i] = 0.001 * i + __ARG0__;
        b[i] = 1.0 - 0.0005 * i;
    }
    for (int i = 0; i < 1024; i++) c[i] = 0.5;
    for (int rep = 0; rep < 3; rep++) {
        for (int i = 0; i < 2048; i++) a[i] = a[i] * 1.001 + b[i] * 0.01;
        for (int i = 0; i < 1024; i++) c[i] = c[i] + a[i] * 0.001;
    }
    double s = 0.0;
    for (int i = 0; i < 2048; i++) s += a[i];
    for (int i = 0; i < 1024; i++) s += c[i];
    print_f64(s);
    free((char *) a);
    free((char *) b);
    free((char *) c);
    return 0;
}
"""

#: The serve mix: (label, source) in dispatch rotation order.
MIX_SOURCES: Tuple[Tuple[str, str], ...] = (
    ("smooth", SMOOTH_SOURCE),
    ("scale", SCALE_SOURCE),
    ("dotnorm", DOTNORM_SOURCE),
)

#: Argument variants per program: distinct artifacts from one source.
MIX_ARGS: Tuple[str, ...] = ("1.5", "2.5")


def build_mix(clients: int, seed: int = 0,
              tenants: Sequence[str] = ("default",),
              arrival_spread_s: float = 0.0,
              sources: Optional[Sequence[Tuple[str, str]]] = None,
              args_variants: Sequence[str] = MIX_ARGS
              ) -> List[ServeRequest]:
    """``clients`` requests over the mix, deterministically seeded.

    Requests rotate over (program x argument x tenant); arrivals are
    uniform over ``[0, arrival_spread_s]`` from ``seed`` (all zero --
    one concurrent burst -- by default).  Same inputs, same request
    list, always.
    """
    rng = random.Random(seed)
    chosen = list(sources if sources is not None else MIX_SOURCES)
    requests = []
    for index in range(clients):
        _, source = chosen[index % len(chosen)]
        arg = args_variants[(index // len(chosen)) % len(args_variants)]
        arrival = rng.uniform(0.0, arrival_spread_s) \
            if arrival_spread_s > 0 else 0.0
        requests.append(ServeRequest(
            request_id=index, arrival_s=arrival,
            tenant=tenants[index % len(tenants)],
            source=source, args=(arg,)))
    requests.sort(key=lambda r: (r.arrival_s, r.request_id))
    return requests
