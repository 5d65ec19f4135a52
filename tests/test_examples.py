"""Smoke tests that the runnable examples actually run.

Only the fast examples run in-process here; the training-heavy ones
(quickstart, comparisons) are covered by their underlying APIs in the
integration tests and by the benchmarks.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    old_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_examples_directory_complete(self):
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "infrastructure_tour.py",
            "msd_burst_comparison.py",
            "ligo_model_accuracy.py",
            "custom_workflow.py",
            "save_and_deploy.py",
            "tracing_tour.py",
            "million_request_burst.py",
        } <= present

    def test_infrastructure_tour_runs(self, capsys):
        run_example("infrastructure_tour.py")
        out = capsys.readouterr().out
        assert "request conservation holds: True" in out
        assert "TDS dependency queries" in out

    def test_tracing_tour_runs(self, capsys):
        run_example("tracing_tour.py")
        out = capsys.readouterr().out
        assert "record kinds:" in out
        assert "('consumer_crash', 'Preprocess')" in out
        assert "Per-microservice utilization" in out
        assert "Training curves" in out
        assert "manifest round-trip ok: True" in out

    def test_million_request_burst_quick(self, capsys):
        run_example("million_request_burst.py", argv=["--quick"])
        out = capsys.readouterr().out
        assert "completed 4,000/4,000 workflows" in out
        assert "request conservation holds: True" in out

    def test_custom_workflow_builder(self):
        """The custom ensemble in the example is a valid ensemble."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "custom_workflow_example", EXAMPLES / "custom_workflow.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        ensemble = module.build_genomics_ensemble()
        assert ensemble.num_task_types == 5
        assert ensemble.num_workflow_types == 3
        covered = set().union(*(w.tasks for w in ensemble.workflow_types))
        assert covered == set(ensemble.task_names())
