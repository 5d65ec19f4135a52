"""Queue types of the two substrates.

The paper: "We employ an acknowledgement mechanism between RabbitMQ message
queues and consumers to guarantee that task requests (and the workflows they
belong to) do not get lost in the system."  Each microservice owns its
queue and implements that contract itself (publish, delivery, ack, nack
with front-of-queue redelivery): the serial
:class:`repro.sim.microservice.Microservice` on a deque of request
objects, each delivery under a :data:`DeliveryTag`, settling an unknown
tag raising :class:`QueueError`; the batched
:class:`repro.sim.microservice.BatchedMicroservice` on an
:class:`IndexFifo`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.batchpairs import batched_pair

__all__ = ["DeliveryTag", "QueueError", "IndexFifo"]

DeliveryTag = int


class QueueError(RuntimeError):
    """Raised on protocol violations (double ack, unknown tag, ...)."""


class IndexFifo:
    """FIFO of integer task indices on a flat numpy buffer.

    The batched substrate's replacement for the serial queue's deque of
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
