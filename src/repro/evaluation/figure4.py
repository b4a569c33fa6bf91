"""Figure 4: whole-program speedup over sequential CPU-only execution.

The paper plots, for each of the 24 programs, the speedup of the
idealized inspector-executor, unoptimized CGCM, and optimized CGCM,
plus whole-suite geomeans: 0.92x / 0.71x / 5.36x (and, clamping each
program at 1.0x as the paper also reports, 1.53x / 2.81x / 7.18x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..gpu.timing import sum_in_order
from .runner import BenchmarkResult

SERIES = ("inspector-executor", "unoptimized", "optimized")

#: The paper's reported geomeans (Figure 4 / section 6.3).
PAPER_GEOMEANS = {
    "inspector-executor": 0.92,
    "unoptimized": 0.71,
    "optimized": 5.36,
}
PAPER_GEOMEANS_CLAMPED = {
    "inspector-executor": 1.53,
    "unoptimized": 2.81,
    "optimized": 7.18,
}


@dataclass
class Figure4Row:
    program: str
    suite: str
    speedups: Dict[str, float]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum_in_order(math.log(v) for v in values)
                    / len(values))


def build_figure4(results: Sequence[BenchmarkResult]) -> List[Figure4Row]:
    rows = []
    for result in results:
        rows.append(Figure4Row(
            program=result.workload.name,
            suite=result.workload.suite,
            speedups={series: result.speedup(series) for series in SERIES},
        ))
    return rows


def figure4_geomeans(rows: Sequence[Figure4Row],
                     clamp_at_one: bool = False) -> Dict[str, float]:
    """Whole-suite geomean per series (optionally taking
    ``max(1.0, speedup)`` per program, as the paper also reports)."""
    output = {}
    for series in SERIES:
        values = [row.speedups[series] for row in rows]
        if clamp_at_one:
            values = [max(1.0, v) for v in values]
        output[series] = geomean(values)
    return output


def render_figure4(rows: Sequence[Figure4Row], width: int = 40) -> str:
    """ASCII rendition of Figure 4: one bar group per program."""
    lines: List[str] = []
    header = (f"{'program':17s} {'IE':>7s} {'unopt':>7s} {'opt':>7s}  "
              "speedup over sequential CPU (log scale)")
    lines.append(header)
    max_speedup = max(max(row.speedups.values()) for row in rows)
    scale = width / math.log(max(max_speedup, 2.0) * 1.1)
    glyphs = {"inspector-executor": "i", "unoptimized": "u",
              "optimized": "#"}
    for row in rows:
        ie = row.speedups["inspector-executor"]
        unopt = row.speedups["unoptimized"]
        opt = row.speedups["optimized"]
        lines.append(f"{row.program:17s} {ie:7.2f} {unopt:7.2f} "
                     f"{opt:7.2f}")
        for series in SERIES:
            value = row.speedups[series]
            bar = int(max(0.0, math.log(max(value, 0.02))) * scale)
            marker = glyphs[series]
            lines.append(f"{'':17s} |{marker * max(bar, 1)}"
                         f"{'' if value >= 1 else '  (<1x)'}")
    geo = figure4_geomeans(rows)
    clamped = figure4_geomeans(rows, clamp_at_one=True)
    lines.append("")
    lines.append(
        "geomean      measured: "
        + "  ".join(f"{s}={geo[s]:.2f}x" for s in SERIES))
    lines.append(
        "geomean (>=1) measured: "
        + "  ".join(f"{s}={clamped[s]:.2f}x" for s in SERIES))
    lines.append(
        "geomean      paper   : "
        + "  ".join(f"{s}={PAPER_GEOMEANS[s]:.2f}x" for s in SERIES))
    lines.append(
        "geomean (>=1) paper   : "
        + "  ".join(f"{s}={PAPER_GEOMEANS_CLAMPED[s]:.2f}x"
                    for s in SERIES))
    return "\n".join(lines)
