"""Multi-GPU sweep harness: report shape, identity gating, rendering."""

import json

from repro.evaluation.multibench import (MULTIGPU_SCHEMA, MultiGpuCell,
                                         MultiGpuReport,
                                         run_multigpu_bench)
from repro.workloads import get_workload


def small_sweep():
    return run_multigpu_bench(
        workloads=[get_workload("gemm"), get_workload("gesummv")],
        device_counts=(1, 2))


class TestSweep:
    def test_cells_cover_the_grid_and_stay_identical(self):
        report = small_sweep()
        assert report.ok
        assert {(c.name, c.devices) for c in report.rows} == {
            ("gemm", 1), ("gemm", 2), ("gesummv", 1), ("gesummv", 2)}
        for cell in report.rows:
            if cell.devices == 1:
                assert cell.speedup == 1.0

    def test_json_schema(self, tmp_path):
        report = small_sweep()
        path = tmp_path / "bench.json"
        report.write(str(path))
        data = json.loads(path.read_text())
        assert data["schema"] == MULTIGPU_SCHEMA
        assert data["device_counts"] == [1, 2]
        assert "2" in data["geomeans"]
        for cell in data["cells"]:
            assert cell["identical"] is True
            assert cell["speedup"] > 0

    def test_render_flags_divergence(self):
        report = MultiGpuReport("full", (1, 2), [
            MultiGpuCell("good", 2, "full", 2.0, 1.0),
            MultiGpuCell("bad", 2, "full", 2.0, 1.0,
                         mismatches=("observables differ",)),
        ])
        assert not report.ok
        rendered = report.render()
        assert "2.00x" in rendered
        assert "DIVERGE" in rendered
        # Divergent cells never count toward the geomean.
        assert report.geomean(2) == 2.0
