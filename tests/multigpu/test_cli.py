"""CLI surface for multi-device runs: --devices/--topology, multibench."""

import json

import pytest

from repro.__main__ import main

PROGRAM = r"""
double xs[64];
double ys[64];
int main(void) {
    for (int i = 0; i < 64; i++) { xs[i] = i; ys[i] = 64 - i; }
    for (int t = 0; t < 3; t++)
        for (int i = 0; i < 64; i++)
            xs[i] = xs[i] + ys[i];
    double s = 0.0;
    for (int i = 0; i < 64; i++) s += xs[i];
    print_f64(s);
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.c"
    path.write_text(PROGRAM)
    return str(path)


class TestDevicesFlag:
    def test_run_output_is_device_count_invariant(self, source_file,
                                                  capsys):
        outputs = []
        for argv in (["run", source_file],
                     ["run", source_file, "--devices", "2"],
                     ["run", source_file, "--devices", "4",
                      "--topology", "ring"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_run_devices_with_sanitizer_is_clean(self, source_file,
                                                 capsys):
        code = main(["run", source_file, "--devices", "2", "--sanitize"])
        captured = capsys.readouterr()
        assert code == 0
        assert "sanitizer: clean" in captured.err

    def test_stats_show_multigpu_counters(self, source_file, capsys):
        main(["run", source_file, "--devices", "2", "--stats"])
        err = capsys.readouterr().err
        assert "multigpu_placements" in err

    def test_trace_devices_renders(self, source_file, capsys):
        code = main(["trace", source_file, "--devices", "2"])
        assert code == 0
        assert "gpu1" in capsys.readouterr().out


class TestMultibench:
    def test_multibench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["multibench", "gemm", "--devices", "1", "2",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "geomean" in captured.out
        data = json.loads(out.read_text())
        assert data["device_counts"] == [1, 2]
        assert all(c["identical"] for c in data["cells"])
