"""``--jobs N``: parallel per-file analysis must be order-deterministic.

The engine fans parsing and per-file checking out over a process pool;
these tests pin the contract that a parallel run is byte-identical to a
serial one — same findings, same order, same summary counts — because
results merge in input order, never completion order.
"""

import textwrap

from repro.analysis.cli import main
from repro.analysis.config import LintConfig
from repro.analysis.engine import run_analysis

PACKAGE = {
    "pkg/__init__.py": "",
    "pkg/clean.py": "def double(x):\n    return 2 * x\n",
    "pkg/dirty.py": textwrap.dedent("""
        import random

        def roll():
            assert random.random() < 1.0
            return 1
    """).lstrip("\n"),
    "pkg/hot.py": textwrap.dedent("""
        def step(values):
            total = 0.0
            for v in values:
                total += v
            return total
    """).lstrip("\n"),
    "pkg/broken.py": "def oops(:\n",
}


def write_package(tmp_path):
    for rel, code in PACKAGE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")
    return tmp_path


def run(tmp_path, jobs):
    config = LintConfig(root=tmp_path)
    return run_analysis([tmp_path], config=config, jobs=jobs)


class TestParallelDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        write_package(tmp_path)
        serial = run(tmp_path, jobs=1)
        parallel = run(tmp_path, jobs=4)
        as_rows = lambda r: [f.to_dict() for f in r.findings]  # noqa: E731
        assert as_rows(parallel) == as_rows(serial)
        assert parallel.checked_files == serial.checked_files
        assert len(parallel.suppressed) == len(serial.suppressed)

    def test_parallel_reports_syntax_errors(self, tmp_path):
        write_package(tmp_path)
        parallel = run(tmp_path, jobs=4)
        assert any(f.rule == "P001" for f in parallel.findings)

    def test_findings_found_in_parallel_run(self, tmp_path):
        # Guard against a vacuous determinism test: the synthetic
        # package must actually produce multi-family findings.
        write_package(tmp_path)
        rules = {f.rule for f in run(tmp_path, jobs=4).findings}
        assert "N102" in rules  # project-tier rule (parent process)
        assert "D101" in rules  # per-file rule (worker process)

    def test_single_file_stays_serial(self, tmp_path):
        path = tmp_path / "one.py"
        path.write_text("import random\n", encoding="utf-8")
        config = LintConfig(root=tmp_path)
        result = run_analysis([path], config=config, jobs=8)
        assert {f.rule for f in result.findings} == {"D101"}


class TestJobsCli:
    def test_jobs_zero_is_usage_error(self, tmp_path, capsys):
        write_package(tmp_path)
        code = main(["--root", str(tmp_path), "--jobs", "0", str(tmp_path)])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_flag_accepted(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        code = main([
            "--root", str(tmp_path), "--jobs", "2", str(tmp_path / "ok.py"),
        ])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestJobsDefault:
    """``--jobs`` omitted: auto-detect the CPU count, and stay
    byte-identical to an explicit serial run."""

    def test_default_matches_explicit_serial_byte_for_byte(
        self, tmp_path, capsys, monkeypatch
    ):
        import os

        write_package(tmp_path)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        code_default = main([
            "--root", str(tmp_path), str(tmp_path),
        ])
        default_out = capsys.readouterr().out
        code_serial = main([
            "--root", str(tmp_path), "--jobs", "1",
            str(tmp_path),
        ])
        serial_out = capsys.readouterr().out
        assert code_default == code_serial
        assert default_out == serial_out

    def test_unknown_cpu_count_falls_back_to_serial(
        self, tmp_path, capsys, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: None)
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        code = main([
            "--root", str(tmp_path), str(tmp_path / "ok.py"),
        ])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out
