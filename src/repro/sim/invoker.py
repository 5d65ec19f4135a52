"""Workflow invoker and dependency-driven task routing.

Implements the four-step request flow of the paper's Fig. 1:

1. on workflow arrival, ask the TDS which task(s) start the workflow,
2. publish the request to those tasks' queues,
3. a consumer processes the request,
4. on completion, query the TDS for subsequent task(s) and publish to them —
   honouring AND-join synchronisation (a successor is published only once
   **all** of its predecessors in this workflow instance have completed).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.events import EventLoop
from repro.sim.queueing import AckQueue
from repro.sim.requests import TaskRequest, WorkflowRequest
from repro.sim.tds import TaskDependencyService

__all__ = ["WorkflowInvoker"]

WorkflowCompletionCallback = Callable[[WorkflowRequest], None]


class WorkflowInvoker:
    """Routes workflow requests through their task DAGs.

    Routing is resolved once, at construction, from the TDS's compiled
    dependency table: per workflow type its size and entry tasks, per
    ``(workflow type, task)`` the successors with the predecessors each
    waits for — every task already paired with its queue.  The hot path
    is then dictionary lookups; each TDS read is still accounted where
    the query it stands for used to be made.
    """

    def __init__(
        self,
        loop: EventLoop,
        tds: TaskDependencyService,
        queues: Dict[str, AckQueue],
        on_workflow_complete: Optional[WorkflowCompletionCallback] = None,
    ):
        self.loop = loop
        self.tds = tds
        self.on_workflow_complete = on_workflow_complete
        self.submitted_total = 0
        self.completed_total = 0
        table = tds.table
        # A task type without a queue is reported when something is
        # published to it, not here: ``queues.get`` leaves ``None``.
        self._entries = {
            w_name: (
                table.size[w],
                tuple((t, queues.get(t)) for t in table.entry_names[w]),
            )
            for w, w_name in enumerate(table.workflow_names)
        }
        self._routes = {
            key: tuple(
                (successor, predecessors, queues.get(successor))
                for successor, predecessors in route
            )
            for key, route in table.routes.items()
        }

    # Submission ------------------------------------------------------------
    def submit(self, workflow_type: str) -> WorkflowRequest:
        """Step 1–2 of Fig. 1: create a request and publish its entry tasks."""
        try:
            total_tasks, entries = self._entries[workflow_type]
        except KeyError:
            raise KeyError(
                f"unknown workflow type {workflow_type!r}"
            ) from None
        request = WorkflowRequest(
            workflow_type=workflow_type,
            arrival_time=self.loop.now,
            total_tasks=total_tasks,
        )
        self.submitted_total += 1
        self.tds.account_reads(1)  # entry-tasks query
        for task, queue in entries:
            self._publish(request, task, queue)
        return request

    def _publish(
        self,
        workflow_request: WorkflowRequest,
        task: str,
        queue: Optional[AckQueue],
    ) -> None:
        if queue is None:
            raise KeyError(
                f"no queue for task type {task!r} (workflow "
                f"{workflow_request.workflow_type!r})"
            )
        queue.publish(
            TaskRequest(
                task_type=task,
                workflow=workflow_request,
                published_at=self.loop.now,
            )
        )

    # Completion routing ------------------------------------------------------
    def handle_task_completion(self, task_request: TaskRequest, now: float) -> None:
        """Step 4 of Fig. 1: publish ready successors; detect completion."""
        workflow_request = task_request.workflow
        task = task_request.task_type
        completed = workflow_request.completed_tasks
        if task in completed:
            raise RuntimeError(
                f"task {task!r} completed twice for workflow request "
                f"{workflow_request.request_id}"
            )
        completed.add(task)

        account_read = self.tds.account_reads
        account_read(1)  # successors query
        for successor, predecessors, queue in self._routes[
            workflow_request.workflow_type, task
        ]:
            account_read(1)  # predecessors query (AND-join check)
            if completed.issuperset(predecessors):
                self._publish(workflow_request, successor, queue)

        if len(completed) == workflow_request.total_tasks:
            workflow_request.completion_time = now
            self.completed_total += 1
            if self.on_workflow_complete is not None:
                self.on_workflow_complete(workflow_request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkflowInvoker(submitted={self.submitted_total}, "
            f"completed={self.completed_total})"
        )
