"""Tests for request records."""

import pytest

from repro.sim.requests import TaskRequest, WorkflowRequest


class TestWorkflowRequest:
    def test_ids_are_unique(self):
        a = WorkflowRequest("W", 0.0, 2)
        b = WorkflowRequest("W", 0.0, 2)
        assert a.request_id != b.request_id

    def test_response_time_requires_completion(self):
        request = WorkflowRequest("W", arrival_time=10.0, total_tasks=1)
        with pytest.raises(RuntimeError, match="not complete"):
            request.response_time()
        request.completion_time = 25.0
        assert request.response_time() == 15.0
        assert request.completion_time is not None

    def test_completed_tasks_start_empty(self):
        request = WorkflowRequest("W", 0.0, 3)
        assert request.completed_tasks == set()
        assert request.completion_time is None


class TestTaskRequest:
    def test_defaults(self):
        workflow = WorkflowRequest("W", 0.0, 1)
        task = TaskRequest("A", workflow, published_at=5.0)
        assert task.deliveries == 0
        assert task.wasted_work == 0.0
        assert task.workflow is workflow

    def test_ids_are_unique(self):
        workflow = WorkflowRequest("W", 0.0, 1)
        a = TaskRequest("A", workflow, 0.0)
        b = TaskRequest("A", workflow, 0.0)
        assert a.task_id != b.task_id
