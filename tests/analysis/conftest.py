"""Shared helpers for the reprolint tests.

Rules are exercised on synthetic source written into ``tmp_path``; the
helper below hides the engine plumbing so each test states only the code
under analysis and the rule ids it expects.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import run_analysis


@pytest.fixture
def lint(tmp_path, monkeypatch):
    """Lint one synthetic module; returns the list of findings."""
    monkeypatch.chdir(tmp_path)

    def _lint(code, filename="sample.py"):
        path = tmp_path / filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")
        return run_analysis([path]).findings

    return _lint


def rules_of(findings):
    """The set of rule ids present in a findings list."""
    return {f.rule for f in findings}


def repo_root() -> Path:
    """The repository root (two levels above tests/analysis/)."""
    return Path(__file__).resolve().parents[2]
