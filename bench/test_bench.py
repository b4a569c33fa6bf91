"""Smoke tests of the benchmark: ``python -m pytest bench/``.

Every workload runs through ``bench/run.py`` on a tiny op list
(``--limit 3 --seconds 0``): twice untraced and once traced.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(out: Path, workload: str, trace: int = 0, *extra: str):
    """Run the benchmark CLI; returns (last stdout line, --out runs)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--limit", "3", "--trace", str(trace), "--out", str(out), *extra],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    return final, json.loads(out.read_text())["runs"]


@pytest.fixture(scope="module", params=WORKLOADS)
def measured(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return {"first": bench(tmp / "first.json", request.param),
            "second": bench(tmp / "second.json", request.param),
            "traced": bench(tmp / "traced.json", request.param, 1)}


def modeled(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["clock"] != "host"}


@pytest.mark.parametrize("kind,section", [("first", "end_to_end"),
                                          ("traced", "per_layer")])
def test_last_line_holds_every_declared_metric(measured, kind, section):
    final, _ = measured[kind]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} \
        == declared


def test_metric_labels_match_the_declarations(measured):
    (_, first), (_, traced) = measured["first"], measured["traced"]
    records = {**first[0]["metrics"], **traced[1]["layers"]}
    declared = {m["name"]: (m["unit"], m["better"])
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    # run.py adds trace_overhead from the pair of runs.
    assert set(declared) - set(records) == {"trace_overhead"}
    for name, label in declared.items():
        if name in records:
            assert (records[name]["unit"], records[name]["better"]) \
                == label, name


def test_every_op_matches_its_reference(measured):
    for kind in ("first", "second", "traced"):
        final, runs = measured[kind]
        assert final["correct"] and final["failed"] == 0
        for run in runs:
            assert run["metrics"]["fail_frac"]["value"] == 0, run["errors"]


def test_modeled_metrics_repeat_exactly(measured):
    (_, first), (_, second), (_, traced) = (
        measured[k] for k in ("first", "second", "traced"))
    sim = modeled(first[0]["metrics"])
    assert any(name.startswith("sim_") for name in sim)
    assert modeled(second[0]["metrics"]) == sim
    untraced_again, traced_run = traced
    assert modeled(untraced_again["metrics"]) == sim
    assert modeled(traced_run["metrics"]) == sim


def test_compare_reads_repeated_runs_as_same(measured):
    (_, first), (_, second) = measured["first"], measured["second"]
    report = io.StringIO()
    assert compare.compare(first, second, SPEC, out=report)
    rows = [line.split() for line in report.getvalue().splitlines()
            if line.startswith("  ") and "exact" in line]
    assert rows and all(row[-1] == "same" for row in rows)


def test_corrupted_reference_counts_as_failure(tmp_path):
    reference = json.loads((ROOT / "bench" / "golden.json").read_text())
    for entry in reference["programs"].values():
        entry["stdout"] = ["corrupted"]
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(reference))
    final, runs = bench(tmp_path / "out.json", "paper-warm", 0,
                        "--golden", str(corrupted))
    assert final["failed"] > 0 and not final["correct"]
    assert runs[0]["metrics"]["fail_frac"]["value"] > 0
