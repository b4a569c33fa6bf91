"""The committed modeled-time BENCH files are current.

Modeled time is deterministic, so a small slice of each sweep, rerun
here, must reproduce the committed rows exactly.  A failure means the
committed file is stale: regenerate it with the sweep's command
(``python -m repro bench --streams``, ``faultbench``, ``multibench``
or ``servebench``, each with its default ``--out``).
"""

import json
import os

import pytest

from repro import api
from repro.evaluation.faultbench import run_fault_bench
from repro.evaluation.multibench import run_multigpu_bench
from repro.evaluation.overlap import run_overlap_bench
from repro.evaluation.servebench import run_serve_bench
from repro.workloads import get_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def workloads(*names):
    return [get_workload(name) for name in names]


#: (sweep slice, the fields that key a row).
SLICES = {
    "streams": (lambda: run_overlap_bench(workloads("gemm", "atax",
                                                    "kmeans")),
                ("name",)),
    "faults": (lambda: run_fault_bench(workloads("atax")),
               ("name", "schedule")),
    "multigpu": (lambda: run_multigpu_bench(workloads("gemm"),
                                            device_counts=(1, 2)),
                 ("name", "devices")),
    "serve": (lambda: run_serve_bench(scales=(10,)),
              ("clients", "cache", "sharing")),
}


@pytest.fixture
def fresh_cache():
    # Serve cells count artifact-cache hits, so start from the empty
    # cache the sweep command starts from.
    api.clear_cache()
    yield
    api.clear_cache()


@pytest.mark.parametrize("sweep", sorted(SLICES))
def test_slice_matches_committed_rows(sweep, fresh_cache):
    run, key = SLICES[sweep]
    report = run()
    assert report.ok
    fresh = json.loads(json.dumps(report.to_json()))
    with open(os.path.join(ROOT, report.committed_path)) as handle:
        committed = json.load(handle)
    assert fresh["schema"] == committed["schema"]
    committed_rows = {tuple(row[k] for k in key): row
                      for row in committed[report.rows_key]}
    for row in fresh[report.rows_key]:
        assert row == committed_rows[tuple(row[k] for k in key)]
    if sweep == "serve":
        for entry in ("derived", "byte_identity", "sanitizer_clean"):
            assert fresh[entry] == {name: committed[entry][name]
                                    for name in fresh[entry]}
