"""Direct tests of the workflow invoker's routing logic."""

from collections import deque

import pytest

from repro.sim.events import EventLoop
from repro.sim.invoker import WorkflowInvoker
from repro.sim.tds import CompiledDependencyTable
from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType


def build_invoker(edges, tasks=(), without_queue=()):
    names = set(tasks)
    for up, down in edges:
        names.add(up)
        names.add(down)
    ensemble = WorkflowEnsemble(
        "T",
        [TaskType(n, 1.0) for n in sorted(names)],
        [WorkflowType("W", edges=edges, tasks=tasks)],
    )
    loop = EventLoop()
    # Each queue is a bare deque: the invoker only ever publishes.
    queues = {
        n: deque() for n in ensemble.task_names() if n not in without_queue
    }
    completed = []
    invoker = WorkflowInvoker(
        loop,
        CompiledDependencyTable(ensemble),
        {n: queue.append for n, queue in queues.items()},
        on_workflow_complete=completed.append,
    )
    return loop, invoker, queues, completed


def finish(invoker, queue, now=0.0):
    """Take the next task out of a queue and complete it (these queues
    have no consumer side; a microservice would deliver and ack it)."""
    request = queue.popleft()
    invoker.handle_task_completion(request, now)
    return request


class TestRouting:
    def test_entry_task_published_on_submit(self):
        loop, invoker, queues, _ = build_invoker([("A", "B")])
        invoker.submit("W")
        assert len(queues["A"]) == 1
        assert len(queues["B"]) == 0

    def test_successor_published_after_completion(self):
        loop, invoker, queues, _ = build_invoker([("A", "B")])
        invoker.submit("W")
        finish(invoker, queues["A"])
        assert len(queues["B"]) == 1

    def test_and_join_waits_for_all_predecessors(self):
        loop, invoker, queues, _ = build_invoker(
            [("A", "C"), ("B", "C")], tasks=("A", "B", "C")
        )
        invoker.submit("W")
        finish(invoker, queues["A"])
        assert len(queues["C"]) == 0  # B not done yet
        finish(invoker, queues["B"])
        assert len(queues["C"]) == 1

    def test_fork_publishes_all_branches(self):
        loop, invoker, queues, _ = build_invoker([("A", "B"), ("A", "C")])
        invoker.submit("W")
        finish(invoker, queues["A"])
        assert len(queues["B"]) == 1
        assert len(queues["C"]) == 1

    def test_completion_callback_and_time(self):
        loop, invoker, queues, completed = build_invoker([("A", "B")])
        request = invoker.submit("W")
        finish(invoker, queues["A"], now=5.0)
        finish(invoker, queues["B"], now=12.0)
        assert completed == [request]
        assert request.completion_time == 12.0
        assert request.response_time() == 12.0
        assert invoker.completed_total == 1

    def test_double_completion_raises(self):
        loop, invoker, queues, _ = build_invoker([("A", "B")])
        invoker.submit("W")
        request = finish(invoker, queues["A"])
        with pytest.raises(RuntimeError, match="completed twice"):
            invoker.handle_task_completion(request, 1.0)

    def test_unknown_queue_raises(self):
        # Routing binds queues at construction; a task type that has
        # none is reported when something is first published to it.
        loop, invoker, queues, _ = build_invoker(
            [("A", "B")], without_queue=("B",)
        )
        invoker.submit("W")
        with pytest.raises(KeyError, match="no queue"):
            finish(invoker, queues["A"])
        _, invoker, _, _ = build_invoker([("A", "B")], without_queue=("A",))
        with pytest.raises(KeyError, match="no queue"):
            invoker.submit("W")

    def test_multi_entry_workflow(self):
        loop, invoker, queues, _ = build_invoker(
            [("A", "C"), ("B", "C")], tasks=("A", "B", "C")
        )
        invoker.submit("W")
        assert len(queues["A"]) == 1
        assert len(queues["B"]) == 1
