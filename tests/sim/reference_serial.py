"""The serial task path as it ran before it lost its frames.

Kept in ``tests/`` as the reference the production serial substrate is
held to.  One task used to cross ``queue.publish`` → ``_notify`` →
``Microservice._dispatch`` → ``queue.consume`` → ``loop.schedule``, then
``_on_finished`` → ``require`` ×2 → ``queue.ack`` → the system →
``invoker.handle_task_completion`` → ``tds.account_reads(1)`` per
successor → ``_publish`` → ``queue.publish``.  The code below is the
pre-change code verbatim — the queue class (``AckQueue``, less its
``__len__`` and ``__repr__``; the microservice owns its queue now),
``Microservice._dispatch`` / ``_on_finished`` / ``_stop_now`` /
``wip``, ``WorkflowInvoker.submit`` / ``_publish`` /
``handle_task_completion`` and the two request dataclasses — the
methods as overrides of today's classes (names prefixed; an
``__init__`` puts the queue back and points the microservice's own
queue state at it, and three properties read the lifetime totals off
it, which is what ``substrate_snapshot`` reads; nothing else touched).
``ReferenceSerialSystem`` wires them exactly as
``MicroserviceWorkflowSystem._build_substrate`` wires today's classes.
The TDS read accounting and cluster slot releases are gone from it, with
the replica and placement emulations that were their only effect.
The scenario harness (tests/sim/scenarios.py) runs generated scenarios
on both and requires equal snapshots after every window and equal traces.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.sim.consumer import Consumer, ConsumerState
from repro.sim.events import EventLoop
from repro.sim.invoker import WorkflowInvoker
from repro.sim.microservice import Microservice
from repro.sim.queueing import DeliveryTag, QueueError
from repro.sim.system import MicroserviceWorkflowSystem
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.validation import require

__all__ = [
    "ReferenceAckQueue",
    "ReferenceMicroservice",
    "ReferenceSerialSystem",
    "ReferenceWorkflowInvoker",
]

_request_ids = itertools.count()
_task_ids = itertools.count()


@dataclass
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

    @property
    def is_complete(self) -> bool:
        return self.completion_time is not None

    def response_time(self) -> float:
        """Arrival-to-last-task-finish duration (the paper's "delay")."""
        if self.completion_time is None:
            raise RuntimeError(
                f"workflow request {self.request_id} is not complete yet"
            )
        return self.completion_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.is_complete else f"{len(self.completed_tasks)} tasks"
        return (
            f"WorkflowRequest(id={self.request_id}, type={self.workflow_type!r}, "
            f"{state})"
        )


@dataclass
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


class ReferenceAckQueue:
    """FIFO task-request queue with unacked-message tracking."""

    def __init__(self, name: str, tracer: Optional[Tracer] = None):
        if not name:
            raise ValueError("queue name must be non-empty")
        self.name = name
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._ready: Deque[TaskRequest] = deque()
        self._unacked: Dict[DeliveryTag, TaskRequest] = {}
        self._tags = itertools.count(1)
        self._subscribers: List[Callable[[], None]] = []
        # Lifetime counters for metrics / conservation checks.
        self.published_total = 0
        self.acked_total = 0
        self.redelivered_total = 0

    # Publishing --------------------------------------------------------
    def publish(self, request: TaskRequest) -> None:
        """Append a task request and wake subscribers."""
        if request.task_type != self.name:
            raise QueueError(
                f"request for task {request.task_type!r} published to "
                f"queue {self.name!r}"
            )
        self._ready.append(request)
        self.published_total += 1
        if self._tracer.enabled:
            self._tracer.write({
                "kind": "event.publish", "t": None,
                "queue": self.name, "depth": self.depth,
            })
        self._notify()

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Register a callback fired after every publish/requeue.

        The microservice uses this to wake idle consumers, mirroring
        RabbitMQ's push delivery.
        """
        self._subscribers.append(callback)

    def _notify(self) -> None:
        # No copy: subscription happens at wiring time (the owning
        # microservice's constructor), never from inside a callback.
        for callback in self._subscribers:
            callback()

    # Consumption -------------------------------------------------------
    def consume(self) -> Optional[Tuple[DeliveryTag, TaskRequest]]:
        """Pop the oldest ready message; ``None`` when the queue is empty.

        The message stays in the unacked set until :meth:`ack` or
        :meth:`nack`.
        """
        if not self._ready:
            return None
        request = self._ready.popleft()
        request.deliveries += 1
        tag = next(self._tags)
        self._unacked[tag] = request
        return tag, request

    def ack(self, tag: DeliveryTag) -> TaskRequest:
        """Acknowledge successful processing; the message leaves the system."""
        request = self._unacked.pop(tag, None)
        if request is None:
            raise QueueError(f"unknown or already-settled delivery tag {tag}")
        self.acked_total += 1
        return request

    def nack(self, tag: DeliveryTag) -> TaskRequest:
        """Negative-acknowledge: requeue at the front for redelivery."""
        request = self._unacked.pop(tag, None)
        if request is None:
            raise QueueError(f"unknown or already-settled delivery tag {tag}")
        self._ready.appendleft(request)
        self.redelivered_total += 1
        if self._tracer.enabled:
            self._tracer.write({
                "kind": "event.redeliver", "t": None,
                "queue": self.name, "depth": self.depth,
            })
        self._notify()
        return request

    # Introspection ------------------------------------------------------
    @property
    def ready_count(self) -> int:
        """Messages waiting in the queue."""
        return len(self._ready)

    @property
    def unacked_count(self) -> int:
        """Messages delivered to a consumer but not yet settled."""
        return len(self._unacked)

    @property
    def depth(self) -> int:
        """Work-in-progress: waiting + being processed (the paper's w_j)."""
        return len(self._ready) + len(self._unacked)

    def conservation_ok(self) -> bool:
        """published == acked + ready + unacked (no message ever lost)."""
        return self.published_total == (
            self.acked_total + self.ready_count + self.unacked_count
        )


def _kept_on_queue(name: str) -> property:
    """A lifetime total the reference counts on its queue; the base
    constructor's zeroing is the one write through the microservice."""

    def zero(self, value: int) -> None:
        assert value == 0, f"{name} is counted on the queue"

    return property(lambda self: getattr(self.queue, name), zero)


class ReferenceMicroservice(Microservice):
    """``Microservice`` with its pre-change dispatch, finish and stop, on
    a :class:`ReferenceAckQueue`."""

    published_total = _kept_on_queue("published_total")
    acked_total = _kept_on_queue("acked_total")
    redelivered_total = _kept_on_queue("redelivered_total")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue = ReferenceAckQueue(self.task_type.name, tracer=self.tracer)
        self.queue.subscribe(self._dispatch)
        self._ready = self.queue._ready
        self._unacked = self.queue._unacked

    def _stop_now(self, victim: Consumer) -> None:
        """Hard-stop a live consumer and free its slot.

        A busy victim's in-flight request is redelivered (never lost);
        the elapsed processing is wasted.  An idle victim is always the
        first idle consumer (see the class docstring), the head of the
        idle index.
        """
        if victim.state is ConsumerState.BUSY:
            require(victim.current_tag is not None,
                    "busy consumer has no delivery tag")
            require(victim.current_request is not None,
                    "busy consumer has no in-flight request")
            elapsed = self.loop.now - victim.processing_started_at
            victim.current_request.wasted_work += elapsed
            self.queue.nack(victim.current_tag)
            victim.current_tag = None
            victim.current_request = None
            self.consumers_killed_busy += 1
        elif victim.state is ConsumerState.IDLE:
            _, first_idle = heapq.heappop(self._idle)
            require(first_idle is victim,
                    "idle victim is not the first idle consumer")
        victim.state = ConsumerState.STOPPED
        self.consumers.remove(victim)

    def _dispatch(self) -> None:
        """Hand ready messages to idle consumers (push delivery).

        Oldest message to first idle consumer, until either runs out;
        with nobody idle or nothing ready it returns at once.
        """
        idle = self._idle
        while idle:
            item = self.queue.consume()
            if item is None:
                return
            consumer = heapq.heappop(idle)[1]
            tag, request = item
            now = self.loop.now
            consumer.state = ConsumerState.BUSY
            if not consumer.busy_indexed:
                self._index_busy(consumer)
            consumer.current_tag = tag
            consumer.current_request = request
            consumer.processing_started_at = now
            request.started_at = now
            service_time = self._fixed_service
            if service_time is None:
                service_time = float(
                    self.rng.generator.lognormal(mean=self._mu, sigma=self._sigma)
                )
            consumer.pending_event = self.loop.schedule(
                service_time, self._on_finished, consumer
            )

    def _on_finished(self, consumer: Consumer) -> None:
        if consumer.state is not ConsumerState.BUSY:
            return  # killed before finishing; nack already handled it
        require(consumer.current_tag is not None,
                "finished consumer has no delivery tag")
        require(consumer.current_request is not None,
                "finished consumer has no in-flight request")
        request = self.queue.ack(consumer.current_tag)
        now = self.loop.now
        service_time = now - consumer.processing_started_at
        consumer.tasks_completed += 1
        consumer.busy_time += service_time
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.task_complete", "t": None,
                "service": self.name,
                "service_time": service_time,
            })
        consumer.current_tag = None
        consumer.current_request = None
        consumer.pending_event = None
        self.tasks_completed += 1
        if consumer in self.draining:
            # Terminating pod: its last task is done; release the slot.
            consumer.state = ConsumerState.STOPPED
            self.draining.remove(consumer)
            self._trace_stop(consumer, "drained")
        else:
            consumer.state = ConsumerState.IDLE
            heapq.heappush(self._idle, (consumer.trace_id, consumer))
        self.on_task_complete(request, now)
        self._dispatch()

    @property
    def wip(self) -> int:
        """Work-in-progress w_j: queued + in-processing requests."""
        return self.queue.depth


class ReferenceWorkflowInvoker(WorkflowInvoker):
    """``WorkflowInvoker`` with its pre-change submission and routing."""

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
        for task, queue in entries:
            self._publish(request, task, queue)
        return request

    def _publish(
        self,
        workflow_request: WorkflowRequest,
        task: str,
        queue: Optional[ReferenceAckQueue],
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

        for successor, predecessors, queue in self._routes[
            workflow_request.workflow_type, task
        ]:
            if completed.issuperset(predecessors):
                self._publish(workflow_request, successor, queue)

        if len(completed) == workflow_request.total_tasks:
            workflow_request.completion_time = now
            self.completed_total += 1
            if self.on_workflow_complete is not None:
                self.on_workflow_complete(workflow_request)


class ReferenceSerialSystem(MicroserviceWorkflowSystem):
    """The serial system wired from the reference classes."""

    def _build_substrate(self) -> None:
        """Create the event loop, microservices and invoker.

        Template method: :class:`repro.sim.batched.BatchedWorkflowSystem`
        overrides this to install the array-backed substrate while every
        other wiring step (cluster, TDS, RNG streams, tracer binding)
        stays shared.  The two substrates must fork per-microservice RNG
        streams in the same ``ensemble.task_types`` order — fork order,
        not fork label, determines stream identity.
        """
        self.loop = EventLoop()
        self.microservices: Dict[str, Microservice] = {}
        for task_type in self.ensemble.task_types:
            self.microservices[task_type.name] = ReferenceMicroservice(
                task_type,
                loop=self.loop,
                rng=self._rngs["service_times"].fork(task_type.name),
                on_task_complete=self._on_task_complete,
                scale_down_mode=self.config.scale_down_mode,
                tracer=self.tracer,
            )
        self.invoker = ReferenceWorkflowInvoker(
            self.loop,
            self.table,
            {name: ms.queue for name, ms in self.microservices.items()},
            on_workflow_complete=self._on_workflow_complete,
        )
