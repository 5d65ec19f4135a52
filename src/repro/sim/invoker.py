"""Workflow invoker and dependency-driven task routing.

Implements the four-step request flow of the paper's Fig. 1:

1. on workflow arrival, look up which task(s) start the workflow,
2. publish the request to those tasks' queues,
3. a consumer processes the request,
4. on completion, look up the subsequent task(s) and publish to them —
   honouring AND-join synchronisation (a successor is published only once
   **all** of its predecessors in this workflow instance have completed).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.events import EventLoop
from repro.sim.requests import TaskRequest, WorkflowRequest
from repro.sim.tds import CompiledDependencyTable

__all__ = ["WorkflowInvoker"]

WorkflowCompletionCallback = Callable[[WorkflowRequest], None]

#: Puts one task request on its task type's queue
#: (:meth:`repro.sim.microservice.Microservice.publish`).
Publish = Callable[[TaskRequest], None]


class WorkflowInvoker:
    """Routes workflow requests through their task DAGs.

    Routing is resolved once, at construction, from the compiled
    dependency table: per workflow type its size and entry tasks, per
    ``(workflow type, task)`` the successors with the predecessors each
    waits for — every task already paired with its queue's ``publish``
    (``publishers``, by task type).  The hot path is then dictionary
    lookups.
    """

    def __init__(
        self,
        loop: EventLoop,
        table: CompiledDependencyTable,
        publishers: Dict[str, Publish],
        on_workflow_complete: Optional[WorkflowCompletionCallback] = None,
    ):
        self.loop = loop
        self.on_workflow_complete = on_workflow_complete
        self.submitted_total = 0
        self.completed_total = 0
        # A task type without a queue is reported when something is
        # published to it, not here: ``publishers.get`` leaves ``None``.
        self._entries = {
            w_name: (
                table.size[w],
                tuple((t, publishers.get(t)) for t in table.entry_names[w]),
            )
            for w, w_name in enumerate(table.workflow_names)
        }
        self._routes = {
            key: tuple(
                (successor, predecessors, publishers.get(successor))
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
        now = self.loop.now
        request = WorkflowRequest(workflow_type, now, total_tasks)
        self.submitted_total += 1
        for task, publish in entries:
            if publish is None:
                raise _no_queue(task, workflow_type)
            publish(TaskRequest(task, request, now))
        return request

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

        for successor, predecessors, publish in self._routes[
            workflow_request.workflow_type, task
        ]:
            if completed.issuperset(predecessors):
                if publish is None:
                    raise _no_queue(successor, workflow_request.workflow_type)
                publish(TaskRequest(successor, workflow_request, now))

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


def _no_queue(task: str, workflow_type: str) -> KeyError:
    return KeyError(
        f"no queue for task type {task!r} (workflow {workflow_type!r})"
    )
