"""Workflow and task request records.

A :class:`WorkflowRequest` is one submission of a workflow type (the unit
whose response time the paper reports); it fans out into one
:class:`TaskRequest` per task in the workflow's DAG, published according to
the AND-join dependency rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Set

import numpy as np

__all__ = ["WorkflowRequest", "TaskRequest", "RequestPool"]

_request_ids = itertools.count()
_task_ids = itertools.count()


@dataclass(slots=True)
class WorkflowRequest:
    """One submitted workflow instance.

    Attributes
    ----------
    workflow_type:
        Name of the workflow type (e.g. ``Type1``, ``CAT``).
    arrival_time:
        Simulation time at which the request entered the system.
    completed_tasks:
        Task names of this instance that have finished processing; drives
        the AND-join readiness test.
    completion_time:
        Set when the last task finishes ("the time when the workflow's last
        task is finished", Section II-B).
    """

    workflow_type: str
    arrival_time: float
    total_tasks: int
    request_id: int = field(default_factory=_request_ids.__next__)
    completed_tasks: Set[str] = field(default_factory=set)
    completion_time: Optional[float] = None

    def response_time(self) -> float:
        """Arrival-to-last-task-finish duration (the paper's "delay")."""
        if self.completion_time is None:
            raise RuntimeError(
                f"workflow request {self.request_id} is not complete yet"
            )
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "done" if self.completion_time is not None
            else f"{len(self.completed_tasks)} tasks"
        )
        return (
            f"WorkflowRequest(id={self.request_id}, type={self.workflow_type!r}, "
            f"{state})"
        )


@dataclass(slots=True)
class TaskRequest:
    """One task of one workflow instance, queued at a microservice."""

    task_type: str
    workflow: WorkflowRequest
    published_at: float
    task_id: int = field(default_factory=_task_ids.__next__)
    #: Number of delivery attempts (redeliveries after consumer kills).
    deliveries: int = 0
    #: Cumulative processing time wasted by interrupted attempts.
    wasted_work: float = 0.0
    #: Start of the latest processing attempt (set at every dispatch, so
    #: at completion it is the start of the successful attempt).
    started_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskRequest(id={self.task_id}, task={self.task_type!r}, "
            f"wf={self.workflow.request_id})"
        )


class RequestPool:
    """Struct-of-arrays storage for millions of workflow/task requests.

    The batched substrate's replacement for per-request
    :class:`WorkflowRequest`/:class:`TaskRequest` objects: one row per
    request in a set of parallel numpy arrays, addressed by integer
    index.  Workflow row ``i`` is the ``i``-th submission of the run
    (the run-local ordinal the serial path uses for trace request ids),
    and task rows are appended in publish order.

    AND-join bookkeeping is a per-workflow countdown: row ``i`` holds
    one remaining-predecessor counter per task of its workflow type
    (``wf_pred_remaining[i, local]``), decremented as predecessors
    finish; a successor is published exactly when its counter hits zero
    — the same moment the serial invoker's ``all(p in completed)`` test
    first passes.  ``wf_task_done`` guards against double completion
    (the serial path's "completed twice" error).

    Arrays grow by doubling; burst submission appends whole batches via
    :meth:`add_workflows`/:meth:`add_tasks` without touching Python
    per row.
    """

    def __init__(self, max_tasks_per_workflow: int, capacity: int = 1024):
        if max_tasks_per_workflow < 1:
            raise ValueError(
                f"max_tasks_per_workflow must be positive, "
                f"got {max_tasks_per_workflow}"
            )
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.max_tasks = max_tasks_per_workflow
        # Workflow rows -------------------------------------------------
        self.num_workflows = 0
        self.wf_type = np.empty(capacity, dtype=np.int32)
        self.wf_arrival = np.empty(capacity, dtype=np.float64)
        self.wf_completion = np.full(capacity, np.nan, dtype=np.float64)
        self.wf_total_tasks = np.empty(capacity, dtype=np.int32)
        self.wf_done_count = np.empty(capacity, dtype=np.int32)
        self.wf_pred_remaining = np.empty(
            (capacity, max_tasks_per_workflow), dtype=np.int16
        )
        self.wf_task_done = np.empty(
            (capacity, max_tasks_per_workflow), dtype=np.int8
        )
        # Task rows -----------------------------------------------------
        self.num_tasks = 0
        self.task_type = np.empty(capacity, dtype=np.int32)
        self.task_workflow = np.empty(capacity, dtype=np.int64)
        self.task_published_at = np.empty(capacity, dtype=np.float64)
        self.task_deliveries = np.empty(capacity, dtype=np.int32)
        self.task_wasted_work = np.empty(capacity, dtype=np.float64)
        self.task_started_at = np.empty(capacity, dtype=np.float64)

    # Growth ------------------------------------------------------------
    def _grow_workflows(self, needed: int) -> None:
        capacity = self.wf_type.size
        if needed <= capacity:
            return
        new_cap = max(needed, 2 * capacity)
        for name in (
            "wf_type", "wf_arrival", "wf_completion", "wf_total_tasks",
            "wf_done_count",
        ):
            old = getattr(self, name)
            new = np.empty(new_cap, dtype=old.dtype)
            new[:self.num_workflows] = old[:self.num_workflows]
            setattr(self, name, new)
        self.wf_completion[self.num_workflows:] = np.nan
        for name in ("wf_pred_remaining", "wf_task_done"):
            old = getattr(self, name)
            new = np.empty((new_cap, self.max_tasks), dtype=old.dtype)
            new[:self.num_workflows] = old[:self.num_workflows]
            setattr(self, name, new)

    def _grow_tasks(self, needed: int) -> None:
        capacity = self.task_type.size
        if needed <= capacity:
            return
        new_cap = max(needed, 2 * capacity)
        for name in (
            "task_type", "task_workflow", "task_published_at",
            "task_deliveries", "task_wasted_work", "task_started_at",
        ):
            old = getattr(self, name)
            new = np.empty(new_cap, dtype=old.dtype)
            new[:self.num_tasks] = old[:self.num_tasks]
            setattr(self, name, new)

    # Workflow rows ------------------------------------------------------
    def add_workflows(
        self,
        count: int,
        workflow_type: int,
        arrival_time: float,
        total_tasks: int,
        pred_counts: np.ndarray,
    ) -> int:
        """Append ``count`` workflow rows; returns the first index.

        A submission passes one row, a burst its shared type and arrival
        time (scalars, one ``pred_counts`` row); a replayed slice's
        arrivals pass per-row arrays and a ``(count, max_tasks)``
        ``pred_counts`` matrix.
        """
        first = self.num_workflows
        end = first + count
        self._grow_workflows(end)
        self.wf_type[first:end] = workflow_type
        self.wf_arrival[first:end] = arrival_time
        self.wf_completion[first:end] = np.nan
        self.wf_total_tasks[first:end] = total_tasks
        self.wf_done_count[first:end] = 0
        self.wf_pred_remaining[first:end, :pred_counts.shape[-1]] = pred_counts
        self.wf_task_done[first:end, :] = 0
        self.num_workflows = end
        return first

    # Task rows ----------------------------------------------------------
    def add_tasks(self, task_types, workflows, published_at) -> np.ndarray:
        """Append a block of task rows; returns their indices in order.

        ``published_at`` is a scalar (a publish or a burst: one shared
        timestamp) or a per-row array (window replay: each successor is
        published at its trigger's completion time).
        """
        task_types = np.asarray(task_types, dtype=np.int32)
        workflows = np.asarray(workflows, dtype=np.int64)
        n = task_types.size
        first = self.num_tasks
        end = first + n
        self._grow_tasks(end)
        self.task_type[first:end] = task_types
        self.task_workflow[first:end] = workflows
        self.task_published_at[first:end] = published_at
        self.task_deliveries[first:end] = 0
        self.task_wasted_work[first:end] = 0.0
        self.task_started_at[first:end] = 0.0
        self.num_tasks = end
        return np.arange(first, end, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestPool(workflows={self.num_workflows}, "
            f"tasks={self.num_tasks})"
        )
