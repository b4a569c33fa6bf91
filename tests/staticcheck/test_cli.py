"""``python -m repro lint`` CLI behavior (human, JSON, corpus)."""

import json

from repro.__main__ import main


class TestLintCommand:
    def test_clean_workload_exits_zero(self, capsys):
        assert main(["lint", "atax"]) == 0
        captured = capsys.readouterr()
        assert "atax: clean" in captured.out
        assert "1/1 modules clean" in captured.err

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["lint", "atax", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (report,) = payload["reports"]
        assert report["module"] == "atax"
        assert report["clean"] is True
        assert report["passes"] == ["verify", "mapstate", "redundant",
                                    "doall", "hbcheck", "placement"]

    def test_source_path_target(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("""
double A[8];
__global__ void k(long tid) { A[tid + 1] = A[tid]; }
int main(void) {
    map((char *) A);
    __launch(k, 8);
    unmap((char *) A);
    release((char *) A);
    return 0;
}
""")
        # The full pipeline re-manages communication but cannot fix
        # the kernel's cross-iteration dependence.
        assert main(["lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "doall-race" in captured.out

    def test_corpus_self_check(self, capsys):
        assert main(["lint", "--corpus"]) == 0
        captured = capsys.readouterr()
        assert "MISSED" not in captured.out
        assert "FALSE POSITIVE" not in captured.out
        assert "corpus 27/27 as expected" in captured.err
        assert "modules clean" not in captured.err  # no module linted

    def test_corpus_json(self, capsys):
        assert main(["lint", "--corpus", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"] == []
        assert len(payload["corpus"]) == 27
        assert all(entry["caught"] for entry in payload["corpus"])
