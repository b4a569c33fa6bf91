"""Serve benchmark: smoke at small scale, full sweep under -m bench."""

import json

import pytest

from repro import api
from repro.evaluation.servebench import (SERVEBENCH_SCHEMA,
                                         run_serve_bench)


@pytest.fixture(autouse=True)
def fresh_cache():
    api.clear_cache()
    yield
    api.clear_cache()


class TestSmokeSweep:
    def test_small_sweep_verifies_and_serializes(self, tmp_path):
        report = run_serve_bench(scales=(8,), seed=0)
        assert report.ok
        assert report.byte_identity == {8: True}
        assert report.sanitizer_clean == {8: True}
        assert len(report.rows) == 4  # cache x sharing
        assert report.speedup_cache(8) > 1.0
        assert report.h2d_saved_frac(8) > 0.0
        path = tmp_path / "BENCH_serve.json"
        report.write(str(path))
        document = json.loads(path.read_text())
        assert document["schema"] == SERVEBENCH_SCHEMA
        assert document["byte_identity"]["8"] is True
        assert len(document["cells"]) == 4
        assert "speedup_cache_8" in document["derived"]

    def test_render_mentions_every_cell(self):
        report = run_serve_bench(scales=(6,), seed=0, verify=False)
        text = report.render()
        assert text.count("\n") >= 4
        assert "req/s" in text


@pytest.mark.bench
class TestFullSweep:
    def test_default_scales_meet_acceptance(self):
        report = run_serve_bench()
        assert report.ok
        # The acceptance criteria of the serving-runtime issue.
        assert report.speedup_cache(100) >= 5.0
        assert report.h2d_saved_frac(100) > 0.0
        for clients in (10, 100, 1000):
            assert report.byte_identity[clients]
            assert report.sanitizer_clean[clients]
