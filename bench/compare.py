"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A B

``A`` (the baseline) and ``B`` are each a results file written by
``bench/run.py --out`` or a directory of such files.  Directions and
bounds come from ``BENCHMARK.json``.  A metric it does not declare
takes its direction from the ``better`` label every result carries; a
host metric without a declared bound (per-layer times, per-op
percentiles) is held to the tightest end-to-end bound, since it times
the same ops.  Each workload gets one block with a verdict per metric
and a summary row:

* ``host`` metrics (measured on the host): ``worse`` or ``better`` when
  B's median moved past the bound; ``unresolved`` when either side's
  quartile spread (IQR / median over its runs) is wider than the bound,
  or a side has fewer than two runs -- unless each side has at least
  three runs and every run of B is worse, or every run better, than
  every run of A; ``same`` otherwise.
* ``sim`` and ``none`` metrics (modeled time, counts) repeat exactly
  for a seed, so they are compared exactly, seed by seed: ``same`` only
  when both sides read the identical value for every shared seed.

The exit code is 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        with open(file) as handle:
            runs.extend(json.load(handle)["runs"])
    return runs


def samples(runs: Iterable[Dict[str, Any]]
            ) -> Dict[str, Dict[str, List[Tuple[int, float, Dict]]]]:
    """workload -> metric -> [(seed, value, metric record)] over all
    runs."""
    out: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        metrics = run["layers"] if run["trace"] else run["metrics"]
        for name, m in metrics.items():
            out[run["workload"]][name].append((run["seed"], m["value"], m))
    return out


def spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else (0.0 if q3 == q1
                                                   else math.inf)


def host_verdict(a: List[float], b: List[float], higher: bool,
                 bound: float) -> Tuple[str, float, float]:
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / abs(ma) if ma else 0.0
    worsened = -change if higher else change
    width = max(spread(a), spread(b))
    # "Every run of B beats every run of A" means little with fewer
    # than three runs a side.
    enough = min(len(a), len(b)) >= 3
    above, below = enough and min(b) > max(a), enough and max(b) < min(a)
    all_better, all_worse = (above, below) if higher else (below, above)
    wide = width > bound
    if worsened > bound:
        verdict = "worse" if all_worse or not wide else "unresolved"
    elif -worsened > bound:
        verdict = "better" if all_better or not wide else "unresolved"
    else:
        verdict = "same" if all_better or not wide else "unresolved"
    return verdict, change, width


def exact_verdict(a: List[Tuple[int, float]], b: List[Tuple[int, float]],
                  higher: bool) -> Tuple[str, float, float]:
    by_seed: Dict[int, Tuple[set, set]] = defaultdict(lambda: (set(), set()))
    for seed, value in a:
        by_seed[seed][0].add(value)
    for seed, value in b:
        by_seed[seed][1].add(value)
    shared = [pair for pair in by_seed.values() if pair[0] and pair[1]]
    if not shared or any(len(x) > 1 or len(y) > 1 for x, y in shared):
        return "unresolved", 0.0, math.inf
    ma = statistics.median(next(iter(x)) for x, _ in shared)
    mb = statistics.median(next(iter(y)) for _, y in shared)
    change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else math.inf)
    if all(x == y for x, y in shared):
        return "same", change, 0.0
    return ("better" if (mb > ma) == higher else "worse"), change, 0.0


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            spec: Dict[str, Any], out=sys.stdout) -> bool:
    """Print the comparison; returns True when nothing is worse."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    host_bound = min(m["bound"] for m in spec["end_to_end"])
    a_all, b_all = samples(a_runs), samples(b_runs)
    ok = True
    for workload in sorted(set(a_all) & set(b_all)):
        a, b = a_all[workload], b_all[workload]
        tally: Dict[str, int] = defaultdict(int)
        print(f"{workload}", file=out)
        print(f"  {'metric':34s} {'A median':>12s} {'B median':>12s} "
              f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict",
              file=out)
        for name in sorted(set(a) & set(b)):
            record = a[name][0][2]
            meta = declared.get(name, record)
            higher = meta["better"] == "higher"
            if record["clock"] == "host":
                bound = meta.get("bound", host_bound)
                verdict, change, width = host_verdict(
                    [v for _, v, _ in a[name]], [v for _, v, _ in b[name]],
                    higher, bound)
                bound_text = f"{bound:6.0%}"
            else:
                verdict, change, width = exact_verdict(
                    [(s, v) for s, v, _ in a[name]],
                    [(s, v) for s, v, _ in b[name]], higher)
                bound_text = " exact"
            tally[verdict] += 1
            ok = ok and verdict != "worse"
            print(f"  {name:34s} "
                  f"{statistics.median(v for _, v, _ in a[name]):12.6g} "
                  f"{statistics.median(v for _, v, _ in b[name]):12.6g} "
                  f"{change:+8.1%} {width:7.1%} {bound_text}  {verdict}",
                  file=out)
        print(f"{workload}: " + ", ".join(
            f"{tally[v]} {v}" for v in ("same", "better", "worse",
                                        "unresolved")), file=out)
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of bench/run.py --out results.")
    parser.add_argument("a", type=Path, help="baseline file or directory")
    parser.add_argument("b", type=Path, help="candidate file or directory")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    return 0 if compare(load_runs(args.a), load_runs(args.b), spec) else 1


if __name__ == "__main__":
    sys.exit(main())
