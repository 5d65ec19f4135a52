"""The gate: the shipped tree must be reprolint-clean.

These tests pin the acceptance contract: ``python -m repro.analysis``
exits 0 on ``src/repro`` with zero unsuppressed findings and an empty
baseline, so any regression reintroducing ambient nondeterminism, seed
fallbacks, float-equality drift, or broken exports fails CI immediately.
"""

import os
import subprocess
import sys

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import run_analysis
from repro.analysis.rules import all_rule_ids

from tests.analysis.conftest import repo_root

#: ``(path, line, rule)`` of every reported finding per tree, generated
#: at the last commit that still had the T1/E1/P1/B1 families (which,
#: like V1/V2/W1 before them, reported nothing on any of these trees) by
#: running the code of ``_triples`` below there.
PINNED_FINDINGS = {
    "src/repro": [],
    "cyclepkg": [],
    "dynpkg": [],
    "reexport": [
        ("reexport/__init__.py", 3, "A102"),
        ("reexport/__init__.py", 3, "A102"),
    ],
}

#: ``(path, rule)`` of every inline-suppressed finding in ``src/repro``.
PINNED_SUPPRESSED = [
    ("src/repro/nn/serialization.py", "D201"),
    ("src/repro/telemetry/manifest.py", "D102"),
    ("src/repro/telemetry/profile.py", "D102"),
    # ``Tracer.write`` stamps ``t`` into the record the site built: the
    # record is a dict made for this call, never an array a caller keeps.
    ("src/repro/telemetry/tracer.py", "N103"),
]


def _triples(findings):
    return sorted((f.path, f.line, f.rule) for f in findings)


@pytest.fixture(scope="module")
def library_result():
    """One lint run over ``src/repro`` with the repo's own config."""
    config = load_config(repo_root())
    return run_analysis(config.resolved_paths(), config=config)


class TestLintGate:
    def test_src_repro_has_zero_findings(self, library_result):
        result = library_result
        details = "\n".join(f.format_text() for f in result.findings)
        assert result.findings == [], f"reprolint regressions:\n{details}"
        assert result.checked_files > 50

    def test_baseline_is_empty(self):
        config = load_config(repo_root())
        baseline_path = config.baseline_path()
        if baseline_path is not None and baseline_path.exists():
            assert len(Baseline.load(baseline_path)) == 0
        # A configured-but-absent baseline file is the empty baseline.

    def test_no_rules_disabled_in_repo_config(self):
        assert load_config(repo_root()).disable == []

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
            "A101", "A102", "A103", "D101", "D102", "D201",
            "L101", "N101", "N102", "N103", "P001",
            "R101", "R102", "R103", "S101", "S102", "S103", "U101",
        ]

    def test_library_tree_matches_the_pin(self, library_result):
        assert (
            _triples(library_result.findings) == PINNED_FINDINGS["src/repro"]
        )
        assert sorted(
            (f.path, f.rule) for f in library_result.suppressed
        ) == PINNED_SUPPRESSED

    def test_fixture_packages_match_the_pin(self):
        fixtures = repo_root() / "tests" / "analysis" / "fixtures"
        for name in ("cyclepkg", "dynpkg", "reexport"):
            result = run_analysis(
                [fixtures / name], config=LintConfig(root=fixtures)
            )
            assert _triples(result.findings) == PINNED_FINDINGS[name], name
