"""`repro bench report` tests: artifact summary table and JSON."""

import json

from repro.cli import main
from repro.cli import _flatten_bench


class TestFlatten:
    def test_numeric_leaves_with_dotted_paths(self):
        document = {
            "a": {"b": 1, "c": 2.5}, "flag": True, "name": "skip",
            "nested": {"deep": {"x": 3}},
        }
        assert _flatten_bench(document) == {
            "a.b": 1.0, "a.c": 2.5, "flag": 1.0, "nested.deep.x": 3.0,
        }


class TestBenchReport:
    def _artifacts(self, tmp_path):
        (tmp_path / "BENCH_alpha.json").write_text(json.dumps({
            "speedup": 4.5, "env": {"python": "3.11"}, "floor": 3.0,
        }))
        (tmp_path / "BENCH_beta.json").write_text(json.dumps({
            "overhead_pct": 1.25, "budget_pct": 2.0,
        }))
        return tmp_path

    def test_table_lists_every_artifact(self, tmp_path, capsys):
        root = self._artifacts(tmp_path)
        assert main(["bench", "report", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert "speedup" in out and "overhead_pct" in out

    def test_json_output(self, tmp_path, capsys):
        root = self._artifacts(tmp_path)
        assert main(["bench", "report", "--root", str(root),
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["alpha"]["speedup"] == 4.5
        assert summary["beta"]["budget_pct"] == 2.0
        # Non-numeric leaves (environment strings) are excluded.
        assert "env.python" not in summary["alpha"]

    def test_missing_artifacts_exit_nonzero(self, tmp_path, capsys):
        assert main(["bench", "report", "--root", str(tmp_path)]) == 1
        assert "no BENCH_" in capsys.readouterr().err

    def test_repo_root_artifacts_summarize(self, capsys):
        """The real BENCH_*.json artifacts at the repo root parse."""
        assert main(["bench", "report", "--root", ".", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "observability" in summary
        assert summary["observability"]["budget_pct"] == 2.0
