"""The ``bench`` job: full engine sweep, perf trajectory artifact.

Divergence between the engines always fails.  The speedup floor is
asserted only outside CI (``CI`` env var unset): shared runners are
too noisy to gate on raw speed, but the checked-in
``BENCH_interp.json`` records the measured result.
"""

import json
import os

import pytest

from repro.core.config import OptLevel
from repro.evaluation.bench import BENCH_SCHEMA, run_engine_bench

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def sweep():
    return run_engine_bench(level=OptLevel.OPTIMIZED, repeat=1)


def test_no_engine_divergence(sweep):
    diverged = {c.name: c.mismatches for c in sweep.rows
                if not c.ok}
    assert diverged == {}
    assert len(sweep.rows) == 24


def test_report_is_written(sweep, tmp_path):
    out = tmp_path / "BENCH_interp.json"
    sweep.write(out)
    with open(out) as handle:
        payload = json.load(handle)
    assert payload["schema"] == BENCH_SCHEMA
    assert len(payload["workloads"]) == 24
    assert payload["geomean_speedup"] > 0


def test_speedup_floor(sweep):
    if os.environ.get("CI"):
        pytest.skip("raw speed never gates CI; see BENCH_interp.json "
                    "artifact")
    assert sweep.geomean_speedup >= 8.0, sweep.render()
