"""Engine mechanics: suppressions, baseline ratchet, config, CLI, output."""

import json
import textwrap

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import run_analysis
from repro.analysis.findings import Finding, Severity

from tests.analysis.conftest import rules_of


def src(code):
    return textwrap.dedent(code).lstrip("\n")


#: One violation of every rule family (D1, D2, S1, A1) in one package —
#: the acceptance fixture for exit-code semantics.
ALL_FAMILIES_INIT = '''
"""Fixture package violating every rule family."""

import random
import numpy as np

from repro.utils.rng import RngStream

__all__ = ["ghost"]

rng = RngStream("pkg", np.random.SeedSequence(0))


def sample(xs=[]):
    """Draw an ambient sample."""
    if random.random() == 0.5:
        return xs
    return None
'''


def write_all_families_package(root):
    pkg = root / "badpkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(src(ALL_FAMILIES_INIT), encoding="utf-8")
    return pkg


class TestSuppressions:
    def test_inline_disable_suppresses_rule(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(src("""
            def degenerate(cv):
                return cv == 0.0  # reprolint: disable=S101
        """), encoding="utf-8")
        result = run_analysis([path], config=LintConfig(root=tmp_path))
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["S101"]

    def test_disable_all_keyword(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(src("""
            import random  # reprolint: disable=all
        """), encoding="utf-8")
        result = run_analysis([path], config=LintConfig(root=tmp_path))
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_disable_on_other_line_does_not_leak(self, tmp_path):
        # The misplaced waiver suppresses nothing, so the real finding
        # fires — and the dead comment itself is reported as U101.
        path = tmp_path / "mod.py"
        path.write_text(src("""
            # reprolint: disable=S101
            def degenerate(cv):
                return cv == 0.0
        """), encoding="utf-8")
        result = run_analysis([path], config=LintConfig(root=tmp_path))
        assert [f.rule for f in result.findings] == ["U101", "S101"]

    def test_disable_other_rule_does_not_suppress(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(src("""
            def degenerate(cv):
                return cv == 0.0  # reprolint: disable=D101
        """), encoding="utf-8")
        result = run_analysis([path], config=LintConfig(root=tmp_path))
        assert [f.rule for f in result.findings] == ["S101", "U101"]


class TestConfig:
    def test_disabled_rules_are_dropped(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(src("""
            def degenerate(cv):
                assert cv >= 0
                return cv == 0.0
        """), encoding="utf-8")
        config = LintConfig(root=tmp_path, disable=["S103"])
        result = run_analysis([path], config=config)
        assert rules_of(result.findings) == {"S101"}

    def test_exclude_prefixes_skip_files(self, tmp_path):
        vendored = tmp_path / "vendored"
        vendored.mkdir()
        (vendored / "mod.py").write_text("import random\n", encoding="utf-8")
        config = LintConfig(root=tmp_path, exclude=["vendored"])
        result = run_analysis([tmp_path], config=config)
        assert result.findings == []
        assert result.checked_files == 0

    def test_load_config_reads_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(src("""
            [tool.reprolint]
            paths = ["lib"]
            disable = ["A103"]
            baseline = "base.json"
            exclude = ["lib/_gen"]
        """), encoding="utf-8")
        config = load_config(tmp_path)
        assert config.root == tmp_path
        assert config.paths == ["lib"]
        assert config.disable == ["A103"]
        assert config.baseline_path() == tmp_path / "base.json"
        assert config.exclude == ["lib/_gen"]

    def test_load_config_accepts_every_documented_key(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(src("""
            [tool.reprolint]
            paths = ["lib"]
            disable = []
            baseline = "base.json"
            exclude = []
            hotpath_roots = ["tick"]

            [tool.reprolint.layers]
            "lib.sim" = []
        """), encoding="utf-8")
        config = load_config(tmp_path)
        assert config.hotpath_roots == ["tick"]
        assert config.layers == {"lib.sim": []}

    def test_load_config_rejects_unknown_and_removed_keys(
        self, tmp_path, capsys
    ):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(src("""
            [tool.reprolint]
            hotpath_root = ["tick"]
        """), encoding="utf-8")
        with pytest.raises(ValueError, match="hotpath_root") as excinfo:
            load_config(tmp_path)
        assert "hotpath_roots" in str(excinfo.value)  # the accepted set
        assert lint_main(["--root", str(tmp_path), str(tmp_path)]) == 2
        assert "hotpath_root" in capsys.readouterr().err

        # Keys the E1 family read are gone with it: plain unknown keys.
        for key in ("sim_packages", "step_entrypoints"):
            pyproject.write_text(src(f"""
                [tool.reprolint]
                {key} = ["tick"]
            """), encoding="utf-8")
            with pytest.raises(ValueError, match=f"unknown .*'{key}'"):
                load_config(tmp_path)

        pyproject.write_text(src("""
            [tool.reprolint]
            cache = ".reprolint-cache.json"
        """), encoding="utf-8")
        with pytest.raises(
            ValueError, match="removed: the index is rebuilt every run"
        ):
            load_config(tmp_path)

    def test_load_config_defaults_without_pyproject(self, tmp_path):
        config = load_config(tmp_path)
        assert config.paths == ["src/repro"]
        assert config.disable == []
        assert config.baseline_path() is None


class TestBaseline:
    def _finding(self, path="a.py", rule="S101", line=1):
        return Finding(
            path=path, line=line, column=1, rule=rule,
            severity=Severity.ERROR, message="m",
        )

    def test_baseline_waives_up_to_count(self):
        baseline = Baseline({("a.py", "S101"): 1})
        findings = [self._finding(line=1), self._finding(line=9)]
        reported, waived = baseline.apply(findings)
        assert len(waived) == 1 and waived[0].line == 1
        assert len(reported) == 1 and reported[0].line == 9

    def test_baseline_is_per_path_and_rule(self):
        baseline = Baseline({("a.py", "S101"): 5})
        findings = [self._finding(path="b.py"), self._finding(rule="S103")]
        reported, _ = baseline.apply(findings)
        assert len(reported) == 2

    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(
            [self._finding(), self._finding(line=3), self._finding(rule="D101")]
        )
        path = tmp_path / "base.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.allowances == {
            ("a.py", "S101"): 2,
            ("a.py", "D101"): 1,
        }

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0

    def test_ratchet_via_cli(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("import random\n", encoding="utf-8")
        base = tmp_path / "base.json"

        # Dirty tree fails ...
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path)]) == 1
        # ... until the findings are accepted into the baseline ...
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path),
                          "--update-baseline"]) == 0
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path)]) == 0
        # ... and a *new* violation still fails.
        path.write_text("import random\nimport random as r2\n",
                        encoding="utf-8")
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path)]) == 1
        capsys.readouterr()


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text(src("""
            \"\"\"Clean module.\"\"\"

            def double(x):
                \"\"\"Twice x.\"\"\"
                return 2 * x
        """), encoding="utf-8")
        assert lint_main([str(path), "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_fixture_with_every_family_exits_nonzero(self, tmp_path, capsys):
        pkg = write_all_families_package(tmp_path)
        code = lint_main([str(pkg), "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        found = {line.split()[1] for line in out.splitlines()
                 if ": " in line and "reprolint:" not in line}
        families = {rule[0] for rule in found if rule[0].isalpha()}
        assert {"D", "S", "A"} <= families
        assert {"D101", "D201", "S101", "S102", "A101"} <= found

    def test_json_format(self, tmp_path, capsys):
        pkg = write_all_families_package(tmp_path)
        code = lint_main([str(pkg), "--root", str(tmp_path),
                          "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["exit_code"] == 1
        assert data["checked_files"] == 1
        rules = {f["rule"] for f in data["findings"]}
        assert {"D101", "D201", "S101", "S102", "A101"} <= rules
        assert data["version"] == 2
        assert data["stale_baseline"] == []
        for finding in data["findings"]:
            assert set(finding) == {
                "path", "line", "column", "rule", "severity", "message",
                "family", "status",
            }
            assert finding["family"] == finding["rule"][:2]
            assert finding["status"] == "reported"

    def test_syntax_error_reports_p001(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        assert lint_main([str(path), "--root", str(tmp_path)]) == 1
        assert "P001" in capsys.readouterr().out

    def test_unknown_disable_rule_is_usage_error(self, tmp_path, capsys):
        # These were rule ids once; a removed id is an unknown id.
        for rule in ("Z999", "V101", "W103", "T101", "E102", "P104", "B101"):
            assert lint_main(["--root", str(tmp_path),
                              "--disable", rule, str(tmp_path)]) == 2
            assert "unknown rule" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--root", str(tmp_path), "--jobs", "2", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope"),
                          "--root", str(tmp_path)]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules_covers_every_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("D101", "D102", "D201", "S101", "S102", "S103",
                     "A101", "A102", "A103", "P001",
                     "R101", "R102", "R103", "L101",
                     "N101", "N102", "N103", "U101"):
            assert rule in out

    def test_disable_flag_drops_family(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text("import random\n", encoding="utf-8")
        assert lint_main([str(path), "--root", str(tmp_path),
                          "--disable", "D101"]) == 0
        capsys.readouterr()


class TestStaleBaseline:
    """Stale baseline entries fail the run: the ratchet only tightens."""

    def _write_dirty(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import random\n", encoding="utf-8")
        return path

    def test_fixed_finding_leaves_stale_entry_and_fails(
        self, tmp_path, capsys
    ):
        path = self._write_dirty(tmp_path)
        base = tmp_path / "base.json"
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path),
                          "--update-baseline"]) == 0
        # Fix the violation; the allowance is now unconsumed.
        path.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "1 stale baseline entries" in out

    def test_stale_entries_in_json_output(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        base = tmp_path / "base.json"
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path),
                          "--update-baseline"]) == 0
        path.write_text("x = 1\n", encoding="utf-8")
        capsys.readouterr()
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path),
                          "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["exit_code"] == 1
        assert data["findings"] == []
        assert data["stale_baseline"] == [
            {"path": "mod.py", "rule": "D101", "unused": 1}
        ]

    def test_update_baseline_clears_stale_entries(self, tmp_path, capsys):
        path = self._write_dirty(tmp_path)
        base = tmp_path / "base.json"
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path),
                          "--update-baseline"]) == 0
        path.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path),
                          "--update-baseline"]) == 0
        assert lint_main([str(path), "--baseline", str(base),
                          "--root", str(tmp_path)]) == 0
        assert len(Baseline.load(base)) == 0
        capsys.readouterr()

    def test_engine_reports_stale_triples(self, tmp_path):
        path = self._write_dirty(tmp_path)
        baseline = Baseline({("mod.py", "D101"): 2, ("gone.py", "S101"): 1})
        config = LintConfig(root=tmp_path)
        result = run_analysis([path], config=config, baseline=baseline)
        assert result.stale_baseline == [
            ("gone.py", "S101", 1),
            ("mod.py", "D101", 1),
        ]
        assert result.exit_code == 1
