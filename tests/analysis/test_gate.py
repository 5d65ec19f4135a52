"""The gate: the shipped tree must be reprolint-clean.

These tests pin the acceptance contract: ``python -m repro.analysis``
exits 0 on ``src/repro`` with zero unsuppressed findings and an empty
baseline, so any regression reintroducing ambient nondeterminism, seed
fallbacks, float-equality drift, or stale waivers fails CI immediately.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import run_analysis
from repro.analysis.rules import all_rule_ids

from tests.analysis.conftest import repo_root

#: ``(path, line, rule)`` of every reported finding per tree, generated
#: at the last commit that still had the R1/L1/N1/A1 families (which
#: reported nothing on this tree) by running the code of ``_triples``
#: below there.
PINNED_FINDINGS = {
    "src/repro": [],
}

#: ``(path, rule)`` of every inline-suppressed finding in ``src/repro``.
PINNED_SUPPRESSED = [
    ("src/repro/nn/serialization.py", "D201"),
    ("src/repro/telemetry/manifest.py", "D102"),
    ("src/repro/telemetry/profile.py", "D102"),
]


def _triples(findings):
    return sorted((f.path, f.line, f.rule) for f in findings)


def _ci_library_run():
    """Arguments of the CI step that lints ``src/repro`` (the first)."""
    ci = repo_root() / ".github" / "workflows" / "ci.yml"
    runs = [
        line.split("python -m repro.analysis", 1)[1].split()
        for line in ci.read_text(encoding="utf-8").splitlines()
        if "python -m repro.analysis" in line
    ]
    return runs[0]


@pytest.fixture(scope="module")
def library_result():
    """One lint run over ``src/repro``, started at the repository root."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(repo_root())
        return run_analysis([Path("src/repro")])


class TestLintGate:
    def test_src_repro_has_zero_findings(self, library_result):
        result = library_result
        details = "\n".join(f.format_text() for f in result.findings)
        assert result.findings == [], f"reprolint regressions:\n{details}"
        assert result.checked_files > 50

    def test_baseline_is_empty(self):
        # The library run is the bare one: no baseline waives anything.
        assert _ci_library_run() == ["--format", "json"]

    def test_no_rules_disabled_in_repo_config(self):
        assert "--disable" not in _ci_library_run()
        pyproject = (repo_root() / "pyproject.toml").read_text(encoding="utf-8")
        assert "[tool.reprolint" not in pyproject

    def test_module_cli_exits_zero(self):
        root = repo_root()
        env = dict(os.environ)
        before = sorted(os.listdir(root))
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--format", "json"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # A lint run is read-only: nothing may appear next to pyproject.
        assert sorted(os.listdir(root)) == before


class TestRemainingRulesPinned:
    """Deleting a rule family must not move a finding of the others."""

    def test_remaining_rule_ids(self):
        assert sorted(all_rule_ids()) == [
            "D101", "D102", "D201", "P001", "S101", "S102", "S103", "U101",
        ]

    def test_library_tree_matches_the_pin(self, library_result):
        assert (
            _triples(library_result.findings) == PINNED_FINDINGS["src/repro"]
        )
        assert sorted(
            (f.path, f.rule) for f in library_result.suppressed
        ) == PINNED_SUPPRESSED
