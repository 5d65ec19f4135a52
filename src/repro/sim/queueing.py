"""Message queue with acknowledgement semantics (RabbitMQ analog).

The paper: "We employ an acknowledgement mechanism between RabbitMQ message
queues and consumers to guarantee that task requests (and the workflows they
belong to) do not get lost in the system."  This module reproduces the
contract a consumer sees:

- ``consume()`` hands out the oldest ready message with a delivery tag and
  moves it to the *unacked* set,
- ``ack(tag)`` removes it permanently,
- ``nack(tag)`` (consumer died mid-processing, e.g. a scale-down kill)
  requeues the message at the **front** so redelivery preserves ordering.

WIP ("work-in-progress", the paper's state signal) is ready + unacked.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.requests import TaskRequest
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.batchpairs import batched_pair

__all__ = ["AckQueue", "DeliveryTag", "QueueError", "IndexFifo"]

DeliveryTag = int


class QueueError(RuntimeError):
    """Raised on protocol violations (double ack, unknown tag, ...)."""


class AckQueue:
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

    def __len__(self) -> int:
        return self.depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AckQueue({self.name!r}, ready={self.ready_count}, "
            f"unacked={self.unacked_count})"
        )


class IndexFifo:
    """FIFO of integer task indices on a flat numpy buffer.

    The batched substrate's replacement for :class:`AckQueue`'s deque of
    request objects: the queue holds ``int64`` indices into a
    :class:`repro.sim.requests.RequestPool`, stored contiguously between
    a moving ``head`` and ``tail``.  Dequeues advance ``head`` (O(1),
    batched dequeues are a pointer add); enqueues append at ``tail`` and
    are vectorised via :meth:`push_many`.  ``push_front`` reinserts a
    redelivered index at the head, preserving the ack mechanism's
    front-of-queue redelivery ordering.

    The buffer compacts (or doubles) only when ``tail`` hits capacity,
    so a window that enqueues and dequeues thousands of indices touches
    numpy exactly twice.
    """

    __slots__ = ("_buf", "_head", "_tail")

    #: Slack kept in front of the data after a compaction so that
    #: ``push_front`` (redelivery) rarely needs a shift of its own.
    _FRONT_SLACK = 16

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._buf = np.empty(capacity + self._FRONT_SLACK, dtype=np.int64)
        self._head = self._FRONT_SLACK
        self._tail = self._FRONT_SLACK

    def __len__(self) -> int:
        return self._tail - self._head

    def _make_room(self, extra: int) -> None:
        """Ensure ``extra`` more slots fit after ``tail``."""
        size = self._tail - self._head
        needed = size + extra + self._FRONT_SLACK
        data = self._buf[self._head:self._tail].copy()
        if needed > self._buf.size:
            self._buf = np.empty(
                max(needed, 2 * self._buf.size), dtype=np.int64
            )
        self._buf[self._FRONT_SLACK:self._FRONT_SLACK + size] = data
        self._head = self._FRONT_SLACK
        self._tail = self._FRONT_SLACK + size

    def push(self, value: int) -> None:
        """Append one index at the tail."""
        if self._tail == self._buf.size:
            self._make_room(1)
        self._buf[self._tail] = value
        self._tail += 1

    @batched_pair("push")
    def push_many(self, values) -> None:
        """Append a batch of indices at the tail, in order.

        Row ``k`` of ``values`` lands exactly where ``k`` serial
        :meth:`push` calls would have put it.
        """
        values = np.asarray(values, dtype=np.int64)
        n = values.size
        if n == 0:
            return
        if self._tail + n > self._buf.size:
            self._make_room(n)
        self._buf[self._tail:self._tail + n] = values
        self._tail += n

    def push_front(self, value: int) -> None:
        """Reinsert one index at the head (redelivery ordering)."""
        if self._head == 0:
            self._make_room(0)
            if self._head == 0:  # pragma: no cover - slack guarantees room
                raise RuntimeError("IndexFifo front slack exhausted")
        self._head -= 1
        self._buf[self._head] = value

    def pop(self) -> int:
        """Dequeue the oldest index."""
        if self._head == self._tail:
            raise IndexError("pop from empty IndexFifo")
        value = int(self._buf[self._head])
        self._head += 1
        return value

    def peek_prefix(self, n: int) -> np.ndarray:
        """Read-only view of the ``n`` oldest indices (no dequeue)."""
        if n > len(self):
            raise IndexError(f"prefix of {n} from IndexFifo of {len(self)}")
        return self._buf[self._head:self._head + n]

    def consume(self, n: int) -> None:
        """Batch-dequeue the ``n`` oldest indices (pointer advance)."""
        if n > len(self):
            raise IndexError(f"consume of {n} from IndexFifo of {len(self)}")
        self._head += n

    def to_list(self) -> List[int]:
        """Queue contents oldest-first (snapshot/debugging aid)."""
        return self._buf[self._head:self._tail].tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexFifo(len={len(self)})"
