"""Simulation clock and event heap.

A minimal, deterministic discrete-event engine: events are ``(time, seq,
callback, args)`` rows on a binary heap; ties in time are broken by
insertion order (``seq``), which makes every run bit-reproducible under a
fixed seed.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Callable, List, Optional, Set, Tuple

__all__ = [
    "EventLoop",
    "EventHandle",
    "TypedEventLoop",
    "TypedEventHandle",
    "EVENT_FINISH",
    "EVENT_READY",
    "EVENT_CALLBACK",
    "EVENT_ARRIVAL",
]

#: Typed-event kinds of :class:`TypedEventLoop`.  Integer tags instead of
#: closures keep the hot path free of per-event allocation: a task-finish
#: or consumer-ready event is five machine words on the heap.
EVENT_FINISH = 0
EVENT_READY = 1
EVENT_CALLBACK = 2
#: The next request of one registered arrival stream (payload: its index).
EVENT_ARRIVAL = 3


class EventHandle:
    """Handle to a scheduled event; allows O(1) cancellation.

    ``cancelled`` starts as the class attribute, so making a handle (one
    per event) runs no Python ``__init__``; only :meth:`cancel` gives an
    instance its own value.  A handle lives while its row is pending.
    """

    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Deterministic discrete-event loop.

    The loop does not run free — callers advance it explicitly with
    :meth:`run_until`, which matches the paper's time-window structure:
    the controller acts, then the world advances by one window.

    A row is ``(when, seq, handle, callback, args)``.  The serial
    :class:`repro.sim.microservice.Microservice` pushes its task-finish
    rows onto ``_heap`` itself, one per dispatched task, with exactly
    what :meth:`schedule` would make (the next ``seq``, a fresh
    :class:`EventHandle`, ``when = now + service time``): the row layout,
    ``_now``, ``_heap`` and ``_seq_next`` are that contract.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        # Rows: (when, seq, handle, callback, args).  ``seq`` is unique,
        # so tuple comparison never reaches the payload.
        self._heap: List[
            Tuple[float, int, EventHandle, Callable[..., None], tuple]
        ] = []
        self._seq_next = 0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Passing the payload as ``args`` instead of closing over it keeps
        a hot scheduler (one finish event per dispatched task) free of a
        closure allocation and an extra call per event.
        """
        # Every guard is written ``not x >= y``: a NaN fails it, where
        # ``x < y`` would let it onto the heap (a NaN row never comes due
        # and blocks every row behind it).
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        # schedule_at's push, not a call to it: this runs once per event.
        handle = EventHandle()
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(
            self._heap, (self._now + delay, seq, handle, callback, args)
        )
        return handle

    def schedule_at(
        self, when: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if not when >= self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when!r}, now={self._now!r})"
            )
        handle = EventHandle()
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(self._heap, (when, seq, handle, callback, args))
        return handle

    def run_until(self, when: float) -> int:
        """Execute all events with timestamp <= ``when``; advance the clock.

        Returns the number of events executed.
        """
        if not when >= self._now:
            raise ValueError(
                f"cannot run backwards (when={when!r}, now={self._now!r})"
            )
        executed = 0
        while self._heap and self._heap[0][0] <= when:
            # Peek before unpacking: cancelled heads are popped and
            # dropped without building locals for time/seq/callback.
            if self._heap[0][2].cancelled:
                heapq.heappop(self._heap)
                continue
            event_time, _, _handle, callback, args = heapq.heappop(self._heap)
            self._now = event_time
            callback(*args)
            executed += 1
            self._processed += 1
        self._now = when
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLoop(now={self._now:.3f}, pending={self.pending})"


class TypedEventHandle:
    """Cancellation handle for a :class:`TypedEventLoop` event.

    API-compatible with :class:`EventHandle` (``cancel()`` plus a
    ``cancelled`` flag) so arrival processes and chaos injectors work
    against either loop.
    """

    __slots__ = ("_loop", "_token", "cancelled")

    def __init__(self, loop: "TypedEventLoop", token: int):
        self._loop = loop
        self._token = token
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._loop.cancel(self._token)


class TypedEventLoop:
    """Deterministic event loop over typed ``(time, seq, kind, a, b)`` rows.

    Drop-in for :class:`EventLoop` on the batched substrate.  The hot
    event kinds — task finish (:data:`EVENT_FINISH`) and consumer ready
    (:data:`EVENT_READY`), carrying ``(microservice index, consumer
    slot)``, and the next request of a Poisson arrival stream
    (:data:`EVENT_ARRIVAL`, carrying the stream's index) — are integer
    payloads dispatched through executors bound once at construction, so
    the per-event cost is a heap pop plus one call: no closure
    allocation, no handle object.  Arbitrary callbacks
    (:data:`EVENT_CALLBACK`, used by the chaos injector and the
    non-Poisson arrival processes) ride the same heap.

    Determinism contract (identical to :class:`EventLoop`): ties in time
    break by insertion order ``seq``; cancelled events are skipped
    without counting toward ``processed``.  The sequence counter is
    shared by every kind, so a batched run schedules the same ``seq``
    values as the serial run it mirrors.

    The loop additionally counts pending callback events: the
    vectorised window replay of
    :class:`repro.sim.batched.BatchedWorkflowSystem` can reproduce typed
    rows but not an opaque callback, so it bypasses the heap only while
    none is pending (see docs/SIMULATOR.md).
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        # Rows: (when, seq, kind, a, b).  ``seq`` is unique, so tuple
        # comparison never reaches the payload and a callback with its
        # argument tuple can ride in slots ``a`` and ``b`` safely.
        self._heap: List[Tuple[float, int, int, object, object]] = []
        self._seq_next = 0
        self._processed = 0
        self._cancelled: Set[int] = set()
        self._callback_pending = 0
        self._on_finish: Optional[Callable[[int, int], None]] = None
        self._on_ready: Optional[Callable[[int, int], None]] = None
        self._on_arrival: Optional[Callable[[int], None]] = None

    def bind_executors(
        self,
        on_finish: Callable[[int, int], None],
        on_ready: Callable[[int, int], None],
        on_arrival: Callable[[int], None],
    ) -> None:
        """Install the typed-event executors (once, at wiring time)."""
        self._on_finish = on_finish
        self._on_ready = on_ready
        self._on_arrival = on_arrival

    # Introspection -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def callbacks_pending(self) -> int:
        """Callback rows on the heap (chaos, non-Poisson arrival
        processes), cancelled included."""
        return self._callback_pending

    # Scheduling --------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args
    ) -> TypedEventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, when: float, callback: Callable[..., None], *args
    ) -> TypedEventHandle:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if not when >= self._now:
            raise ValueError(
                f"cannot schedule into the past (when={when!r}, now={self._now!r})"
            )
        seq = self._seq_next
        self._seq_next = seq + 1
        self._callback_pending += 1
        heapq.heappush(self._heap, (when, seq, EVENT_CALLBACK, callback, args))
        return TypedEventHandle(self, seq)

    def schedule_finish(self, delay: float, ms_index: int, slot: int) -> int:
        """Schedule a task-finish event; returns its cancellation token."""
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(
            self._heap, (self._now + delay, seq, EVENT_FINISH, ms_index, slot)
        )
        return seq

    def schedule_ready_many(
        self, delays: List[float], ms_index: int, first_slot: int
    ) -> int:
        """One consumer-ready event per delay, for consecutive slots, in
        one heap rebuild; returns the first cancellation token (slot
        ``first_slot + k`` holds ``first + k``, as if scheduled one by
        one)."""
        first = self._seq_next
        now = self._now
        self.push_rows([
            (now + delay, first + k, EVENT_READY, ms_index, first_slot + k)
            for k, delay in enumerate(delays)
        ])
        self._seq_next = first + len(delays)
        return first

    def schedule_arrival(self, delay: float, stream: int) -> int:
        """Schedule the next request of arrival stream ``stream``."""
        seq = self._seq_next
        self._seq_next = seq + 1
        heapq.heappush(
            self._heap, (self._now + delay, seq, EVENT_ARRIVAL, stream, 0)
        )
        return seq

    def cancel(self, token: int) -> None:
        """Cancel a scheduled event by token (lazy removal on pop)."""
        self._cancelled.add(token)

    # Execution ---------------------------------------------------------
    def run_until(self, when: float) -> int:
        """Execute all events with timestamp <= ``when``; advance the clock.

        Semantics match :meth:`EventLoop.run_until`: events fire in
        ``(time, seq)`` order and cancelled rows are dropped without
        counting.
        """
        if not when >= self._now:
            raise ValueError(
                f"cannot run backwards (when={when!r}, now={self._now!r})"
            )
        executed = 0
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][0] <= when:
            event_time, seq, kind, a, b = heapq.heappop(heap)
            if seq in cancelled:
                cancelled.discard(seq)
                if kind == EVENT_CALLBACK:
                    self._callback_pending -= 1
                continue
            self._now = event_time
            if kind == EVENT_FINISH:
                self._on_finish(a, b)
            elif kind == EVENT_READY:
                self._on_ready(a, b)
            elif kind == EVENT_ARRIVAL:
                self._on_arrival(a)
            else:
                self._callback_pending -= 1
                a(*b)
            executed += 1
            self._processed += 1
        self._now = when
        return executed

    # Fast-path surface --------------------------------------------------
    # The vectorised window replay (repro.sim.batched) takes every due
    # row off the heap, re-simulates them arithmetically and either
    # commits the result or puts the rows back untouched.
    def pop_due_rows(self, when: float) -> Tuple[List[tuple], List[tuple]]:
        """Pop every row with timestamp <= ``when``: ``(live, cancelled)``.

        Only the heap changes — the cancelled set moves at
        :meth:`commit_fast_window` — so an aborted replay is undone by
        :meth:`push_rows` alone.
        """
        heap = self._heap
        # A sorted list is a valid heap, and sorting once is cheaper
        # than popping what is usually most of it row by row.
        heap.sort()
        cut = bisect.bisect_right(heap, (when, math.inf))
        due = heap[:cut]
        del heap[:cut]
        cancelled = self._cancelled
        if not cancelled:
            return due, []
        return (
            [row for row in due if row[1] not in cancelled],
            [row for row in due if row[1] in cancelled],
        )

    def push_rows(self, rows: List[tuple]) -> None:
        """Insert ``(time, seq, kind, a, b)`` rows whose seq is already
        assigned: what :meth:`pop_due_rows` took (an aborted replay) or
        the finish and arrival events a committed one leaves pending."""
        self._heap.extend(rows)
        heapq.heapify(self._heap)

    def commit_fast_window(
        self, when: float, executed: int, dispatches: int, dropped: List[tuple]
    ) -> None:
        """Advance clock and counters for a vectorised window replay.

        ``executed`` finish, ready and arrival events were replayed
        arithmetically, ``dispatches`` sequence numbers consumed and the
        ``dropped`` cancelled rows discarded — exactly what the exact
        loop would have run, allocated and skipped event by event.
        """
        self._now = when
        self._processed += executed
        self._seq_next += dispatches
        for row in dropped:
            self._cancelled.discard(row[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TypedEventLoop(now={self._now:.3f}, pending={self.pending})"
