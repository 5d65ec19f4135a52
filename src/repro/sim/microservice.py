"""A microservice: one request queue plus a scalable consumer pool.

"Each task type is modeled as a microservice that consists of a request
queue and a set of consumers subscribing to the queue to handle requests"
(Section II-A).  Scaling follows the paper's Kubernetes measurements:

- **scale up**: new consumers take a uniform(5, 10) s start-up delay before
  their first consume (container creation; "can be parallelized"),
- **scale down**: the replication controller removes containers.  We first
  cancel still-starting consumers, then idle ones, then busy ones.  A busy
  victim's fate depends on the scale-down mode:

  - ``"drain"`` (default, matching Kubernetes' SIGTERM grace period): the
    consumer finishes its in-flight task, then exits.  It stops counting
    against the allocation immediately (like a Terminating pod) and takes
    no further work.
  - ``"kill"``: the consumer dies instantly and nacks its in-flight
    request, so the ack mechanism redelivers it and no request is lost —
    the elapsed processing is wasted.

  Either way the allocation m_j drops to the target at once, so the
  consumer-budget constraint stays enforced ("In all following experiments
  we make sure that the constraints are enforced").

The request queue is the RabbitMQ analog, with its acknowledgement
mechanism ("to guarantee that task requests ... do not get lost in the
system"), and each microservice owns its own: a publish appends, and a
dispatch hands the oldest ready message to a consumer under a fresh
delivery tag, keeping it *unacked*.  A finish acks it, and it leaves for
good.  A consumer killed mid-processing nacks it instead, which requeues
it at the **front**, so redelivery preserves ordering.  WIP ("work-in-
progress", the paper's state signal) is ready + unacked.  Both
microservice classes carry the same read members: the lifetime totals
``published_total`` / ``acked_total`` / ``redelivered_total``, the
counts ``ready_count`` / ``unacked_count`` / ``wip`` and
``conservation_ok()``.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections import deque
from math import exp
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.consumer import Consumer, ConsumerState, service_time_params
from repro.sim.events import EventLoop, TypedEventLoop
from repro.sim.queueing import DeliveryTag, IndexFifo, QueueError
from repro.sim.requests import RequestPool, TaskRequest
from repro.sim.substrate import PrefetchStream
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.rng import RngStream
from repro.utils.validation import require
from repro.workflows.dag import TaskType

__all__ = ["Microservice", "BatchedMicroservice"]

#: Container start-up latency bounds in seconds, drawn uniformly per
#: started consumer (the paper measured 5-10 s, Section V).
STARTUP_DELAY_RANGE = (5.0, 10.0)

#: Called with (task_request, completion_time) when a task finishes.
TaskCompletionCallback = Callable[[TaskRequest, float], None]

#: Called with (task_index, completion_time) on the batched substrate.
BatchedTaskCompletionCallback = Callable[[int, float], None]


def _unknown_tag(tag: DeliveryTag) -> QueueError:
    """What settling a tag that is not unacked (twice, or never) raises."""
    return QueueError(f"unknown or already-settled delivery tag {tag}")


# Consumer lifecycle states of the batched substrate, as the same strings
# serial ``ConsumerState.value`` yields — snapshots compare directly.
_STARTING = "starting"
_IDLE = "idle"
_BUSY = "busy"
_STOPPED = "stopped"


class Microservice:
    """Queue + consumer pool for one task type.

    ``consumers`` is always in birth order (appends are births, removals
    keep order), so "the first idle consumer in list order" is the idle
    consumer with the smallest birth ordinal: ``_idle`` is a min-heap of
    ``(ordinal, consumer)`` holding exactly the IDLE consumers.  Every
    way out of IDLE — dispatch, scale-down, crash — takes that first
    one, so the heap needs no lazy invalidation; and ``consumer.state``
    is assigned nowhere outside this class.  ``_starting`` is the same
    heap for the scale-down victim search; consumers leave STARTING in
    any order (start-up delays are random), so its stale heads are
    dropped when it is next looked at.  ``_busy`` serves
    :meth:`crash_one` the same way: a consumer is entered at a dispatch
    unless it is in already (``Consumer.busy_indexed``), and heads that
    are no longer busy members of ``consumers`` are dropped at the next
    crash.
    """

    def __init__(
        self,
        task_type: TaskType,
        loop: EventLoop,
        rng: RngStream,
        on_task_complete: TaskCompletionCallback,
        scale_down_mode: str = "drain",
        tracer: Optional[Tracer] = None,
    ):
        if scale_down_mode not in ("drain", "kill"):
            raise ValueError(
                f"scale_down_mode must be 'drain' or 'kill', "
                f"got {scale_down_mode!r}"
            )
        self.task_type = task_type
        #: The task type's name, which is also the queue's.
        self.name = task_type.name
        self.loop = loop
        self.rng = rng
        self.on_task_complete = on_task_complete
        self.startup_delay_range = STARTUP_DELAY_RANGE
        self.scale_down_mode = scale_down_mode
        self.tracer = tracer if tracer is not None else NULL_TRACER

        self._fixed_service, self._mu, self._sigma = service_time_params(
            task_type.mean_service_time, task_type.cv
        )
        # The bit generator's cheapest draws, bound once.  numpy's scalar
        # ``lognormal(mu, sigma)`` is the C ``exp(mu + sigma * z)`` of one
        # ``standard_normal`` z and ``uniform(low, high)`` is ``low +
        # (high - low) * random()``: the same doubles, computed here
        # without numpy's argument handling
        # (tests/sim/test_draw_identities.py pins both).
        self._standard_normal = rng.generator.standard_normal
        self._random = rng.generator.random
        # The queue (module docstring): ready messages oldest first, and
        # the delivered ones by delivery tag until they are settled.
        self._ready: Deque[TaskRequest] = deque()
        self._unacked: Dict[DeliveryTag, TaskRequest] = {}
        self._tags = itertools.count(1)
        self.published_total = 0
        self.acked_total = 0
        self.redelivered_total = 0
        self.consumers: List[Consumer] = []
        self._idle: List[Tuple[int, Consumer]] = []
        self._starting: List[Tuple[int, Consumer]] = []
        self._busy: List[Tuple[int, Consumer]] = []
        #: Busy consumers finishing their last task before exiting
        #: (Terminating pods); they no longer count toward the allocation.
        self.draining: List[Consumer] = []
        # Lifetime counters.
        self.tasks_completed = 0
        self.consumers_killed_busy = 0
        self.consumers_killed_starting = 0
        self.consumers_started = 0

    # Scaling -------------------------------------------------------------
    @property
    def allocated(self) -> int:
        """Current consumer count (the paper's m_j)."""
        return len(self.consumers)

    def scale_to(self, target: int) -> None:
        """Adjust the consumer pool to exactly ``target`` containers."""
        if target < 0:
            raise ValueError(f"consumer count must be >= 0, got {target}")
        while self.allocated < target:
            self._start_consumer()
        while self.allocated > target:
            self._remove_one_consumer()

    def _start_consumer(self) -> None:
        consumer = Consumer(self)
        self.consumers.append(consumer)
        heapq.heappush(self._starting, (consumer.trace_id, consumer))
        self.consumers_started += 1
        low, high = self.startup_delay_range
        delay = low + (high - low) * self._random() if high > 0 else 0.0
        consumer.pending_event = self.loop.schedule(
            delay, self._on_started, consumer
        )
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.consumer_start", "t": None,
                "service": self.name,
                "consumer_id": consumer.trace_id,
                "startup_delay": delay,
            })

    def _on_started(self, consumer: Consumer) -> None:
        if consumer.state is not ConsumerState.STARTING:
            return  # was killed while starting; activation already cancelled
        consumer.state = ConsumerState.IDLE
        heapq.heappush(self._idle, (consumer.trace_id, consumer))
        consumer.pending_event = None
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.consumer_ready", "t": None,
                "service": self.name,
                "consumer_id": consumer.trace_id,
                "startup_latency": self.loop.now - consumer.created_at,
            })
        self._dispatch()

    def _remove_one_consumer(self) -> None:
        """Remove the cheapest consumer: starting > idle > busy."""
        victim = self._pick_victim()
        if victim.state is ConsumerState.BUSY and self.scale_down_mode == "drain":
            # Graceful termination: finish the in-flight task, then exit.
            # The consumer leaves the allocation count immediately.
            self.consumers.remove(victim)
            self.draining.append(victim)
            self._trace_stop(victim, "drain")
            return
        if victim.pending_event is not None:
            victim.pending_event.cancel()
            victim.pending_event = None
        if victim.state is ConsumerState.STARTING:
            self.consumers_killed_starting += 1
            self._trace_stop(victim, "cancel-starting")
        elif victim.state is ConsumerState.BUSY:
            self._trace_stop(victim, "kill")
        else:
            self._trace_stop(victim, "idle")
        self._stop_now(victim)

    def _stop_now(self, victim: Consumer) -> None:
        """Hard-stop a live consumer.

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
            self._nack(victim.current_tag)
            victim.current_tag = None
            victim.current_request = None
            self.consumers_killed_busy += 1
        elif victim.state is ConsumerState.IDLE:
            _, first_idle = heapq.heappop(self._idle)
            require(first_idle is victim,
                    "idle victim is not the first idle consumer")
        victim.state = ConsumerState.STOPPED
        self.consumers.remove(victim)

    def crash_one(self) -> bool:
        """Crash one busy (else idle) consumer and start a replacement.

        The crash is a hard kill regardless of the scale-down mode: the
        in-flight request is nacked (redelivered, never lost) and a
        fresh container is launched to restore the allocation, paying
        the usual start-up latency.  Returns False when there is
        nothing to crash.
        """
        victim = self._first_busy()
        if victim is None:
            if not self._idle:
                return False
            victim = self._idle[0][1]
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.fault", "t": None,
                "fault": "consumer_crash", "target": self.name,
            })
        if victim.pending_event is not None:
            victim.pending_event.cancel()
            victim.pending_event = None
        self._stop_now(victim)
        # Replacement container (restores the allocation m_j).
        self._start_consumer()
        return True

    def _trace_stop(self, consumer: Consumer, mode: str) -> None:
        """Emit a container-removal event (no-op when tracing is off)."""
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.consumer_stop", "t": None,
                "service": self.name,
                "consumer_id": consumer.trace_id,
                "mode": mode,
            })

    def _index_busy(self, consumer: Consumer) -> None:
        """Enter ``consumer`` in the crash-victim index.

        Only a crash reads the index, so nothing else lets go of the
        entries of consumers that have stopped since: drop them here
        once they outnumber the live ones, or a long run would keep
        every consumer it ever started.
        """
        busy = self._busy
        if len(busy) > 2 * (len(self.consumers) + len(self.draining)) + 16:
            busy[:] = [
                entry for entry in busy
                if entry[1].state is not ConsumerState.STOPPED
            ]
            heapq.heapify(busy)
        consumer.busy_indexed = True
        heapq.heappush(busy, (consumer.trace_id, consumer))

    def _first_busy(self) -> Optional[Consumer]:
        """The first busy consumer in ``consumers`` order, if any."""
        busy = self._busy
        while busy:
            consumer = busy[0][1]
            if (
                consumer.state is ConsumerState.BUSY
                and consumer not in self.draining
            ):
                return consumer
            heapq.heappop(busy)
            consumer.busy_indexed = False
        return None

    def _pick_victim(self) -> Consumer:
        starting = self._starting
        while starting and starting[0][1].state is not ConsumerState.STARTING:
            heapq.heappop(starting)
        if starting:
            return starting[0][1]
        if self._idle:
            return self._idle[0][1]
        return self.consumers[-1]  # newest busy consumer

    # Queue ---------------------------------------------------------------
    def publish(self, request: TaskRequest) -> None:
        """Append a task request to the queue and dispatch it if a
        consumer is idle (push delivery)."""
        if request.task_type != self.name:
            raise QueueError(
                f"request for task {request.task_type!r} published to "
                f"queue {self.name!r}"
            )
        self._ready.append(request)
        self.published_total += 1
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.publish", "t": None,
                "queue": self.name, "depth": self.wip,
            })
        if self._idle:
            self._dispatch()

    def _nack(self, tag: DeliveryTag) -> None:
        """Negative-acknowledge: requeue at the front for redelivery."""
        request = self._unacked.pop(tag, None)
        if request is None:
            raise _unknown_tag(tag)
        self._ready.appendleft(request)
        self.redelivered_total += 1
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.redeliver", "t": None,
                "queue": self.name, "depth": self.wip,
            })
        self._dispatch()

    # Processing ------------------------------------------------------------
    def _dispatch(self) -> None:
        """Hand ready messages to idle consumers (push delivery).

        Oldest message to first idle consumer, until either runs out;
        with nobody idle or nothing ready it returns at once.  Each
        delivery moves the message to the unacked map under a fresh tag,
        and the consumer's finish row goes straight onto the event heap
        — the row :meth:`EventLoop.schedule` would push (next ``seq``,
        ``now + service time``), with the consumer as its handle and its
        birth-time ``finish_args``, and without the delay guard: a valid
        :class:`TaskType` never yields a negative or NaN time.
        """
        idle = self._idle
        ready = self._ready
        if not (idle and ready):
            return
        loop = self.loop
        heap = loop._heap
        now = loop._now
        unacked = self._unacked
        tags = self._tags
        fixed = self._fixed_service
        mu = self._mu
        sigma = self._sigma
        standard_normal = self._standard_normal
        on_finished = self._on_finished
        while idle and ready:
            consumer = heapq.heappop(idle)[1]
            request = ready.popleft()
            request.deliveries += 1
            tag = next(tags)
            unacked[tag] = request
            consumer.state = ConsumerState.BUSY
            if not consumer.busy_indexed:
                self._index_busy(consumer)
            consumer.current_tag = tag
            consumer.current_request = request
            consumer.processing_started_at = now
            request.started_at = now
            if fixed is None:
                when = now + exp(mu + sigma * standard_normal())
            else:
                when = now + fixed
            consumer.pending_event = consumer
            seq = loop._seq_next
            loop._seq_next = seq + 1
            heapq.heappush(
                heap, (when, seq, consumer, on_finished, consumer.finish_args)
            )

    def _on_finished(self, consumer: Consumer) -> None:
        if consumer.state is not ConsumerState.BUSY:
            return  # killed before finishing; nack already handled it
        tag = consumer.current_tag
        request = consumer.current_request
        if tag is None:
            raise RuntimeError(
                "internal invariant violated: "
                "finished consumer has no delivery tag"
            )
        if request is None:
            raise RuntimeError(
                "internal invariant violated: "
                "finished consumer has no in-flight request"
            )
        # The ack: the delivery leaves the unacked map for good.
        try:
            del self._unacked[tag]
        except KeyError:
            raise _unknown_tag(tag) from None
        self.acked_total += 1
        now = self.loop._now
        consumer.tasks_completed += 1
        consumer.busy_time += now - consumer.processing_started_at
        consumer.current_tag = None
        consumer.current_request = None
        consumer.pending_event = None
        self.tasks_completed += 1
        draining = self.draining
        if draining and consumer in draining:
            # Terminating pod: its last task is done; it exits.
            consumer.state = ConsumerState.STOPPED
            draining.remove(consumer)
            self._trace_stop(consumer, "drained")
        else:
            consumer.state = ConsumerState.IDLE
            heapq.heappush(self._idle, (consumer.trace_id, consumer))
        self.on_task_complete(request, now)
        if self._ready:
            self._dispatch()

    # Introspection -----------------------------------------------------------
    @property
    def wip(self) -> int:
        """Work-in-progress w_j: queued + in-processing requests."""
        return len(self._ready) + len(self._unacked)

    @property
    def busy_consumers(self) -> int:
        return sum(1 for c in self.consumers if c.state is ConsumerState.BUSY)

    @property
    def starting_consumers(self) -> int:
        return sum(1 for c in self.consumers if c.state is ConsumerState.STARTING)

    @property
    def ready_count(self) -> int:
        """Messages waiting in the queue."""
        return len(self._ready)

    @property
    def unacked_count(self) -> int:
        """Messages delivered to a consumer but not yet settled."""
        return len(self._unacked)

    def conservation_ok(self) -> bool:
        """published == acked + ready + unacked (no message ever lost)."""
        return self.published_total == self.acked_total + self.wip

    def snapshot_rows(self) -> Tuple[list, list, list]:
        """``(ready, consumers, draining)`` rows of
        :func:`repro.sim.substrate.substrate_snapshot`, each task keyed
        by its workflow's request id."""

        def task(request: TaskRequest) -> tuple:
            return (
                request.workflow.request_id, float(request.published_at),
                int(request.deliveries), float(request.wasted_work),
            )

        def in_service(c: Consumer) -> tuple:
            return task(c.current_request) + (float(c.processing_started_at),)

        consumers = [
            {
                "slot": c.trace_id,
                "state": c.state.value,
                "created_at": float(c.created_at),
                "tasks_completed": c.tasks_completed,
                "busy_time": float(c.busy_time),
                "task": None if c.current_request is None else in_service(c),
            }
            for c in self.consumers
        ]
        draining = [
            {"slot": c.trace_id, "task": in_service(c)}
            for c in self.draining
        ]
        return [task(r) for r in self._ready], consumers, draining

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Microservice({self.name!r}, consumers={self.allocated}, "
            f"wip={self.wip})"
        )


class BatchedMicroservice:
    """Array-backed queue + consumer pool, event-for-event equal to
    :class:`Microservice`.

    Consumers are integer *slots* (birth ordinals — the same run-local
    ids serial consumers carry as ``trace_id``) indexing parallel state
    lists; the queue holds task indices into a shared
    :class:`repro.sim.requests.RequestPool`.  Every mutation happens at
    the same point, in the same order, with the same RNG draws as the
    serial twin, so same-seed runs produce byte-identical traces and
    equal :func:`repro.sim.substrate.substrate_snapshot` results
    (docs/SIMULATOR.md states the contract; the pinning suite is
    tests/sim/test_batched_substrate.py).

    Ordering invariants the implementation leans on:

    - slots are appended in increasing order and removals preserve
      order, so ``order`` (the live-consumer list) is always sorted —
      "first idle/busy consumer in list order" becomes a min-heap head,
      and the serial kill fallback ``consumers[-1]`` is ``order[-1]``;
    - ``_idle_heap`` holds exactly the idle slots (every way out of
      idle takes the first one, as on the serial twin); ``_starting``
      lists the slots started, ascending, until a scale-down drops the
      ones no longer starting; the busy heap's heads whose slot moved on
      are discarded when next looked at, and a slot enters it at a
      dispatch unless it is in already (``_busy_indexed``);
    - service-time and startup draws interleave on the per-microservice
      stream exactly as serially, via :class:`PrefetchStream`.
    """

    def __init__(
        self,
        task_type: TaskType,
        index: int,
        loop: TypedEventLoop,
        rng: RngStream,
        pool: RequestPool,
        on_task_complete: BatchedTaskCompletionCallback,
        scale_down_mode: str = "drain",
        tracer: Optional[Tracer] = None,
    ):
        if scale_down_mode not in ("drain", "kill"):
            raise ValueError(
                f"scale_down_mode must be 'drain' or 'kill', "
                f"got {scale_down_mode!r}"
            )
        self.task_type = task_type
        #: Position in the system's microservice list (event payload id).
        self.index = index
        self.loop = loop
        self.rng = rng
        self.pool = pool
        self.on_task_complete = on_task_complete
        self.startup_delay_range = STARTUP_DELAY_RANGE
        self.scale_down_mode = scale_down_mode
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.prefetch = PrefetchStream(rng)
        self._fixed_service, self._mu, self._sigma = service_time_params(
            task_type.mean_service_time, task_type.cv
        )

        self.fifo = IndexFifo()
        self.published_total = 0
        self.acked_total = 0
        self.redelivered_total = 0
        self.unacked_count = 0
        # Per-slot consumer tables (index = slot = birth ordinal).
        self.state: List[str] = []
        self.created_at: List[float] = []
        self.current_task: List[int] = []
        self.processing_started: List[float] = []
        self.slot_busy_time: List[float] = []
        self.slot_tasks_completed: List[int] = []
        self.pending_token: List[int] = []
        #: Live slots in serial ``consumers``-list order (always sorted).
        self.order: List[int] = []
        #: Busy slots finishing their last task before exiting.
        self.draining: List[int] = []
        self._idle_heap: List[int] = []
        self._starting: List[int] = []
        self._busy_heap: List[int] = []
        self._busy_indexed: List[bool] = []
        # Lifetime counters (names match the serial twin).
        self.tasks_completed = 0
        self.consumers_killed_busy = 0
        self.consumers_killed_starting = 0
        self.consumers_started = 0

    @property
    def name(self) -> str:
        return self.task_type.name

    # Scaling -------------------------------------------------------------
    @property
    def allocated(self) -> int:
        """Current consumer count (the paper's m_j)."""
        return len(self.order)

    def scale_to(self, target: int) -> None:
        """Adjust the consumer pool to exactly ``target`` containers."""
        if target < 0:
            raise ValueError(f"consumer count must be >= 0, got {target}")
        if self.allocated < target:
            self._start_consumers(target - self.allocated)
        elif self.allocated > target:
            self._remove_consumers(self.allocated - target)

    def _start_consumers(self, count: int) -> None:
        """Start ``count`` containers in one block: the start-up draws,
        ready events, ``seq`` numbers and start records of that many
        single starts on the serial twin."""
        first = self.consumers_started
        slots = range(first, first + count)
        low, high = self.startup_delay_range
        delays = (
            self.prefetch.uniform_block(low, high, count)
            if high > 0
            else [0.0] * count
        )
        token = self.loop.schedule_ready_many(delays, self.index, first)
        self.state.extend([_STARTING] * count)
        self.created_at.extend([self.loop.now] * count)
        self.current_task.extend([-1] * count)
        self.processing_started.extend([0.0] * count)
        self.slot_busy_time.extend([0.0] * count)
        self.slot_tasks_completed.extend([0] * count)
        self.pending_token.extend(range(token, token + count))
        self._busy_indexed.extend([False] * count)
        self.order.extend(slots)
        # New slots exceed every slot born before: the list stays sorted.
        self._starting.extend(slots)
        self.consumers_started += count
        if self.tracer.enabled:
            for slot, delay in zip(slots, delays):
                self.tracer.write({
                    "kind": "event.consumer_start", "t": None,
                    "service": self.name,
                    "consumer_id": slot,
                    "startup_delay": delay,
                })

    def on_ready(self, slot: int) -> None:
        """Consumer-ready event executor (start-up delay elapsed)."""
        if self.state[slot] != _STARTING:
            return  # was killed while starting; activation already cancelled
        self.state[slot] = _IDLE
        self.pending_token[slot] = -1
        heapq.heappush(self._idle_heap, slot)
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.consumer_ready", "t": None,
                "service": self.name,
                "consumer_id": slot,
                "startup_latency": self.loop.now - self.created_at[slot],
            })
        self._dispatch()

    def _remove_consumers(self, count: int) -> None:
        """Remove ``count`` consumers in one block: the victims of that
        many single removals on the serial twin (live starting slots,
        then idle ones, each lowest first, then busy ones, newest first),
        with their state changes and, under a tracer, their records in
        the same order: ``consumer_stop``, then ``redeliver`` (kill),
        victim by victim."""
        state, tokens = self.state, self.pending_token
        starting = [s for s in self._starting if state[s] == _STARTING]
        self._starting = starting[count:]
        victims = starting[:count]
        starts = len(victims)
        self.consumers_killed_starting += starts
        if count > starts:
            idle = sorted(self._idle_heap)
            self._idle_heap = idle[count - starts:]  # a sorted list is a heap
            victims += idle[:count - starts]
        self.loop.cancel_many([tokens[s] for s in victims[:starts]])
        for slot in victims:
            state[slot] = _STOPPED
            tokens[slot] = -1
        order = self.order
        if victims:
            order = self.order = [s for s in order if state[s] != _STOPPED]
        cut = len(order) - (count - len(victims))  # then the newest: busy
        busy = order[cut:][::-1]
        del order[cut:]
        modes = (
            ["cancel-starting"] * starts + ["idle"] * (len(victims) - starts)
            + [self.scale_down_mode] * len(busy)
        )
        removed = victims + busy
        if self.scale_down_mode == "drain":
            # Graceful termination: each finishes its task, then exits.
            self.draining += busy
        # Traced, each victim takes a step for its records; else busy ones.
        traced = self.tracer.enabled
        skip = 0 if traced else len(removed) - len(busy)
        for slot, mode in zip(removed[skip:], modes[skip:]):
            if traced:
                self._trace_stop(slot, mode)
            if mode == "kill":
                # The in-flight request is redelivered; its work is wasted.
                self.loop.cancel(tokens[slot])
                task = self.current_task[slot]
                require(task >= 0, "busy consumer has no in-flight request")
                elapsed = self.loop.now - self.processing_started[slot]
                self.pool.task_wasted_work[task] += elapsed
                self._nack(task)
                self.current_task[slot] = tokens[slot] = -1
                self.consumers_killed_busy += 1
                state[slot] = _STOPPED

    def _stop_now(self, victim: int) -> None:
        """Hard-stop a live consumer.

        A busy victim's in-flight request is redelivered (never lost);
        the elapsed processing is wasted.  An idle victim is always the
        first idle consumer, the head of the idle heap.
        """
        state = self.state[victim]
        if state == _BUSY:
            task = self.current_task[victim]
            require(task >= 0, "busy consumer has no in-flight request")
            elapsed = self.loop.now - self.processing_started[victim]
            self.pool.task_wasted_work[task] += elapsed
            self._nack(task)
            self.current_task[victim] = -1
            self.consumers_killed_busy += 1
        elif state == _IDLE:
            first_idle = heapq.heappop(self._idle_heap)
            require(first_idle == victim,
                    "idle victim is not the first idle consumer")
        self.state[victim] = _STOPPED
        del self.order[bisect_left(self.order, victim)]  # sorted: no scan

    def _first_busy(self) -> int:
        """The first busy slot in ``order``, or -1 (a terminating
        consumer is busy, but no longer a member)."""
        busy = self._busy_heap
        while busy:
            slot = busy[0]
            if self.state[slot] == _BUSY and slot not in self.draining:
                return slot
            heapq.heappop(busy)
            self._busy_indexed[slot] = False
        return -1

    def crash_one(self) -> bool:
        """Crash one busy (else idle) consumer and start a replacement.

        Batched twin of :meth:`Microservice.crash_one`, with identical
        victim choice and event order.
        """
        victim = self._first_busy()
        if victim < 0:
            if not self._idle_heap:
                return False
            victim = self._idle_heap[0]
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.fault", "t": None,
                "fault": "consumer_crash", "target": self.name,
            })
        token = self.pending_token[victim]
        if token >= 0:
            self.loop.cancel(token)
            self.pending_token[victim] = -1
        self._stop_now(victim)
        # Replacement container (restores the allocation m_j).
        self._start_consumers(1)
        return True

    def _trace_stop(self, slot: int, mode: str) -> None:
        """Emit a container-removal event (no-op when tracing is off)."""
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.consumer_stop", "t": None,
                "service": self.name,
                "consumer_id": slot,
                "mode": mode,
            })

    # Queue side ----------------------------------------------------------
    def publish_many(self, tasks) -> None:
        """Enqueue a block of task indices, then dispatch once.

        One dispatch pass after a bulk append pairs messages with idle
        consumers in exactly the order per-message publishes would have
        (oldest message to lowest idle slot, same draw order; a dispatch
        moves a message from ready to unacked, so the depth each publish
        record carries is unchanged): a single publish is a block of one.
        """
        self.fifo.push_many(tasks)
        self.published_total += len(tasks)
        if self.tracer.enabled:
            wip = self.wip
            for depth in range(wip - len(tasks) + 1, wip + 1):
                self.tracer.write({
                    "kind": "event.publish", "t": None,
                    "queue": self.name, "depth": depth,
                })
        self._dispatch()

    def _nack(self, task: int) -> None:
        """Redeliver an unacked task at the front of the queue."""
        self.unacked_count -= 1
        self.fifo.push_front(task)
        self.redelivered_total += 1
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.redeliver", "t": None,
                "queue": self.name, "depth": self.wip,
            })
        self._dispatch()

    # Processing ----------------------------------------------------------
    def _dispatch(self) -> None:
        """Hand ready messages to idle consumers (push delivery)."""
        fifo = self.fifo
        pool = self.pool
        loop = self.loop
        idle = self._idle_heap
        while idle and len(fifo):
            slot = heapq.heappop(idle)
            task = fifo.pop()
            pool.task_deliveries[task] += 1
            pool.task_started_at[task] = loop.now
            self.unacked_count += 1
            self.state[slot] = _BUSY
            if not self._busy_indexed[slot]:
                self._busy_indexed[slot] = True
                heapq.heappush(self._busy_heap, slot)
            self.current_task[slot] = task
            self.processing_started[slot] = loop.now
            if self._fixed_service is not None:
                service_time = self._fixed_service
            else:
                service_time = self.prefetch.lognormal(self._mu, self._sigma)
            self.pending_token[slot] = loop.schedule_finish(
                service_time, self.index, slot
            )

    def on_finished(self, slot: int) -> None:
        """Task-finish event executor."""
        if self.state[slot] != _BUSY:
            return  # killed before finishing; nack already handled it
        task = self.current_task[slot]
        require(task >= 0, "finished consumer has no in-flight request")
        self.unacked_count -= 1
        self.acked_total += 1
        now = self.loop.now
        self.slot_tasks_completed[slot] += 1
        self.slot_busy_time[slot] += now - self.processing_started[slot]
        self.current_task[slot] = -1
        self.pending_token[slot] = -1
        self.tasks_completed += 1
        if slot in self.draining:
            # Terminating pod: its last task is done; it exits.
            self.state[slot] = _STOPPED
            self.draining.remove(slot)
            self._trace_stop(slot, "drained")
        else:
            self.state[slot] = _IDLE
            heapq.heappush(self._idle_heap, slot)
        self.on_task_complete(task, now)
        self._dispatch()

    # Introspection -------------------------------------------------------
    @property
    def wip(self) -> int:
        """Work-in-progress w_j: queued + in-processing requests."""
        return len(self.fifo) + self.unacked_count

    @property
    def busy_consumers(self) -> int:
        return sum(1 for s in self.order if self.state[s] == _BUSY)

    @property
    def starting_consumers(self) -> int:
        return sum(1 for s in self.order if self.state[s] == _STARTING)

    @property
    def ready_count(self) -> int:
        """Messages waiting in the queue."""
        return len(self.fifo)

    def conservation_ok(self) -> bool:
        """published == acked + ready + unacked (no message ever lost)."""
        return self.published_total == self.acked_total + self.wip

    def snapshot_rows(self) -> Tuple[list, list, list]:
        """``(ready, consumers, draining)`` rows of
        :func:`repro.sim.substrate.substrate_snapshot`, each task keyed
        by its pool workflow row; the prefetch stream is synced first,
        so the generator state it leaves is the serial one."""
        pool = self.pool
        self.prefetch.sync()

        def task(t: int) -> tuple:
            return (
                int(pool.task_workflow[t]), float(pool.task_published_at[t]),
                int(pool.task_deliveries[t]), float(pool.task_wasted_work[t]),
            )

        def in_service(slot: int) -> tuple:
            return task(self.current_task[slot]) + (
                float(self.processing_started[slot]),
            )

        consumers = [
            {
                "slot": slot,
                "state": self.state[slot],
                "created_at": float(self.created_at[slot]),
                "tasks_completed": int(self.slot_tasks_completed[slot]),
                "busy_time": float(self.slot_busy_time[slot]),
                "task": None if self.current_task[slot] < 0 else in_service(slot),
            }
            for slot in self.order
        ]
        draining = [
            {"slot": slot, "task": in_service(slot)}
            for slot in self.draining
        ]
        return [task(t) for t in self.fifo.to_list()], consumers, draining

    def has_idle(self) -> bool:
        """True when at least one consumer is idle right now."""
        return bool(self._idle_heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedMicroservice({self.name!r}, consumers={self.allocated}, "
            f"wip={self.wip})"
        )
