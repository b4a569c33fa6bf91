"""Run the repository's benchmark.

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out F] [--trace-out F]

Each workload runs in its own process (``python3 -m bench.workloads``),
one after another.  For every workload one JSON object is printed with
each metric by name, unit, clock and better direction; the last line of
standard output
is ``{"correct", "attempted", "failed", "metrics"}``, whose metrics are
the end-to-end metrics ``BENCHMARK.json`` declares, or with ``--trace``
its per-layer metrics.  With several workloads each metric name there
is prefixed by its workload.  ``--trace`` measures each workload twice,
untraced and then traced, and reports ``trace_overhead`` from the pair.

The exit code is 0 whenever every workload completed; outputs that
mismatched their references are reported through ``failed`` and
``fail_frac``, not through the exit code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: The processes of one workload (untraced, then traced) are stopped
#: when they run longer than this together.
WORKLOAD_TIMEOUT_S = 170


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def run_child(args: argparse.Namespace, workload: str, traced: bool,
              deadline: float) -> Dict[str, Any]:
    command = [sys.executable, "-m", "bench.workloads",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced))]
    if args.limit is not None:
        command += ["--limit", str(args.limit)]
    if args.golden is not None:
        command += ["--golden", str(args.golden.resolve())]
    if traced and args.trace_out:
        out = Path(args.trace_out).resolve()
        if len(args.workload) > 1:
            out = out.with_name(f"{out.stem}.{workload}{out.suffix}")
        command += ["--trace-out", str(out)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(deadline - time.monotonic(), 1),
                          check=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared_metrics(metrics: Dict[str, Any],
                     declared: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """The metrics BENCHMARK.json declares, each checked for its unit."""
    for name, spec in declared.items():
        if name not in metrics:
            raise ValueError(f"{name} was not measured")
        if metrics[name]["unit"] != spec["unit"]:
            raise ValueError(f"{name} is measured in "
                             f"{metrics[name]['unit']} but BENCHMARK.json "
                             f"declares {spec['unit']}")
    return {name: metrics[name] for name in declared}


def print_layer_table(workload: str, result: Dict[str, Any],
                      layers: Dict[str, Any],
                      per_layer: Dict[str, Dict[str, Any]]) -> None:
    """Human-readable per-layer table on standard error."""
    print(f"\n{workload}: per-layer (set-up | timed, per op)",
          file=sys.stderr)
    setup = result["layers_setup"]
    for name, spec in per_layer.items():
        before = setup[name]["value"] if name in setup else float("nan")
        print(f"  {name:36s} {before:14.6g} | "
              f"{layers[name]['value']:14.6g}  {spec['unit']}",
              file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="The repository's benchmark (see bench/README.md).")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced run")
    parser.add_argument("--out", type=Path,
                        help="write every run, with raw samples, here")
    parser.add_argument("--trace-out",
                        help="Chrome trace of the traced run's host spans")
    parser.add_argument("--limit", type=int,
                        help="shrink the op list (smoke tests)")
    parser.add_argument("--golden", type=Path,
                        help="reference outputs (default bench/golden.json)")
    args = parser.parse_args(argv)
    args.workload = args.workload or workloads

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    runs: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {}
    correct, attempted, failed = True, 0, 0
    for workload in args.workload:
        deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
        try:
            result = run_child(args, workload, False, deadline)
            runs.append(result)
            shown = dict(result["metrics"])
            reported = declared_metrics(shown, end_to_end)
            if args.trace:
                traced = run_child(args, workload, True, deadline)
                runs.append(traced)
                # Kept out of the traced run's layers: the difference of
                # two host rates, it sits near 0, so compare.py could
                # judge it only against an absolute bound.
                layers = {**traced["layers"], "trace_overhead": {
                    "value": 1 - (traced["metrics"]["host_ops_per_s"]["value"]
                                  / shown["host_ops_per_s"]["value"]),
                    "unit": "frac", "clock": "host", "better": "lower"}}
                traced["trace_overhead"] = layers["trace_overhead"]["value"]
                reported = declared_metrics(layers, per_layer)
                shown.update(layers)
                print_layer_table(workload, traced, layers, per_layer)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"bench: workload {workload} did not complete: {exc!r}",
                  file=sys.stderr)
            return 1
        print(json.dumps({"workload": workload, "seed": args.seed,
                          "correct": result["correct"],
                          "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": shown}))
        correct = correct and result["correct"] \
            and (not args.trace or traced["correct"])
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{workload}." if len(args.workload) > 1 else ""
        summary.update({prefix + name: {"value": m["value"],
                                        "unit": m["unit"]}
                        for name, m in reported.items()})
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({"runs": runs}, handle)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
