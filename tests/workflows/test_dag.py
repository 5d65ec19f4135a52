"""Tests for the workflow DAG model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import RngStream
from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType
from repro.workflows.generator import random_ensemble, random_workflow


class TestTaskType:
    def test_valid(self):
        task = TaskType("A", 2.0, cv=0.5)
        assert task.name == "A"

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            TaskType("", 1.0)

    def test_rejects_non_positive_service_time(self):
        with pytest.raises(ValueError):
            TaskType("A", 0.0)

    def test_rejects_negative_cv(self):
        with pytest.raises(ValueError):
            TaskType("A", 1.0, cv=-0.1)

    @pytest.mark.parametrize(
        "mean, cv",
        [
            (float("nan"), 0.5),
            (float("inf"), 0.5),
            (1.0, float("nan")),
            (1.0, float("inf")),
        ],
    )
    def test_rejects_non_finite_service_time_parameters(self, mean, cv):
        # A microservice pushes its finish rows straight onto the event
        # heap, trusting every drawn service time to be a finite number.
        with pytest.raises(ValueError):
            TaskType("A", mean, cv=cv)


class TestWorkflowType:
    def test_chain_entry_and_exit(self):
        wf = WorkflowType("W", edges=[("A", "B"), ("B", "C")])
        assert wf.entry_tasks == ("A",)
        assert wf.exit_tasks == ("C",)
        assert wf.size == 3

    def test_fork_join(self):
        wf = WorkflowType(
            "W", edges=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]
        )
        assert wf.entry_tasks == ("A",)
        assert wf.exit_tasks == ("D",)
        assert set(wf.predecessors("D")) == {"B", "C"}

    def test_cycle_detection(self):
        with pytest.raises(ValueError, match="cycle"):
            WorkflowType("W", edges=[("A", "B"), ("B", "A")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            WorkflowType("W", edges=[("A", "A")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WorkflowType("W", edges=[("A", "B"), ("A", "B")])

    def test_single_task_workflow_via_tasks_param(self):
        wf = WorkflowType("W", edges=[], tasks=["A"])
        assert wf.entry_tasks == ("A",)
        assert wf.exit_tasks == ("A",)

    def test_empty_workflow_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            WorkflowType("W", edges=[])

    def test_unknown_task_query_raises(self):
        wf = WorkflowType("W", edges=[("A", "B")])
        with pytest.raises(KeyError):
            wf.successors("Z")

    def test_topological_order_respects_edges(self):
        wf = WorkflowType(
            "W", edges=[("A", "B"), ("A", "C"), ("C", "D"), ("B", "D")]
        )
        order = wf.topological_order()
        for up, down in wf.edges:
            assert order.index(up) < order.index(down)


class TestWorkflowEnsemble:
    def _tasks(self, *names):
        return [TaskType(n, 1.0) for n in names]

    def test_valid_ensemble(self):
        ensemble = WorkflowEnsemble(
            "E",
            self._tasks("A", "B"),
            [WorkflowType("W1", edges=[("A", "B")])],
        )
        assert ensemble.num_task_types == 2
        assert ensemble.num_workflow_types == 1

    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate task"):
            WorkflowEnsemble(
                "E",
                self._tasks("A", "A"),
                [WorkflowType("W", edges=[], tasks=["A"])],
            )

    def test_unknown_task_reference_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            WorkflowEnsemble(
                "E",
                self._tasks("A"),
                [WorkflowType("W", edges=[("A", "B")])],
            )

    def test_no_workflows_rejected(self):
        with pytest.raises(ValueError, match="no workflow"):
            WorkflowEnsemble("E", self._tasks("A"), [])

    def test_indices_are_stable(self):
        ensemble = WorkflowEnsemble(
            "E",
            self._tasks("A", "B", "C"),
            [WorkflowType("W", edges=[("A", "B"), ("B", "C")])],
        )
        assert [ensemble.task_index(n) for n in ("A", "B", "C")] == [0, 1, 2]
        assert ensemble.task_names() == ("A", "B", "C")

    def test_unknown_lookups_raise(self):
        ensemble = WorkflowEnsemble(
            "E", self._tasks("A"), [WorkflowType("W", edges=[], tasks=["A"])]
        )
        with pytest.raises(KeyError):
            ensemble.task_index("Z")
        with pytest.raises(KeyError):
            ensemble.workflow_index("Z")


class TestRandomGenerator:
    @given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_random_ensemble_is_valid_and_covering(self, j, n, seed):
        ensemble = random_ensemble(j, n, seed=seed)
        assert ensemble.num_task_types == j
        assert ensemble.num_workflow_types == n
        covered = set().union(*(w.tasks for w in ensemble.workflow_types))
        assert covered == set(ensemble.task_names())

    def test_random_workflow_is_acyclic(self):
        rng = RngStream("g", np.random.SeedSequence(3))
        names = tuple(f"T{i}" for i in range(6))
        for _ in range(20):
            wf = random_workflow("W", names, rng)
            order = wf.topological_order()  # raises on cycles
            assert len(order) == wf.size

    def test_min_tasks_validation(self):
        rng = RngStream("g", np.random.SeedSequence(3))
        with pytest.raises(ValueError):
            random_workflow("W", ("A",), rng, min_tasks=5)
