"""Tests for the discrete-event loop."""

import pytest

from repro.sim.events import (
    EVENT_ARRIVAL,
    EVENT_FINISH,
    EVENT_READY,
    EventLoop,
    TypedEventLoop,
)
from repro.utils.validation import isclose_zero


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(3.0, lambda: seen.append("c"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(2.0, lambda: seen.append("b"))
        loop.run_until(10.0)
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        seen = []
        for label in "abc":
            loop.schedule(1.0, lambda l=label: seen.append(l))
        loop.run_until(1.0)
        assert seen == ["a", "b", "c"]

    def test_clock_advances_to_run_until_target(self):
        loop = EventLoop()
        loop.run_until(5.0)
        assert loop.now == 5.0

    def test_clock_is_event_time_during_callback(self):
        loop = EventLoop()
        times = []
        loop.schedule(2.5, lambda: times.append(loop.now))
        loop.run_until(10.0)
        assert times == [2.5]

    def test_events_beyond_horizon_stay_pending(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda: seen.append("late"))
        loop.run_until(4.0)
        assert seen == []
        loop.run_until(5.0)
        assert seen == ["late"]

    def test_schedule_during_callback(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.schedule(1.0, lambda: seen.append("second"))

        loop.schedule(1.0, first)
        loop.run_until(10.0)
        assert seen == ["first", "second"]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        loop = TypedEventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(4.0, lambda: None)

    def test_run_backwards_rejected(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.run_until(4.0)


class TestNanGuards:
    """NaN fails every guard: ``delay < 0`` is False for it, and a NaN
    row never satisfies ``when >= row time``, so it would stall the heap
    — the rows behind it would never fire."""

    @pytest.mark.parametrize("cls", [EventLoop, TypedEventLoop])
    def test_nan_delay_rejected(self, cls):
        loop = cls()
        with pytest.raises(ValueError, match="into the past"):
            loop.schedule(float("nan"), lambda: None)

    # Only the typed loop takes an absolute time; the serial loop's
    # ``schedule`` is covered above.
    @pytest.mark.parametrize("cls", [TypedEventLoop])
    def test_nan_time_rejected(self, cls):
        loop = cls()
        with pytest.raises(ValueError, match="into the past"):
            loop.schedule_at(float("nan"), lambda: None)

    @pytest.mark.parametrize("cls", [EventLoop, TypedEventLoop])
    def test_run_until_nan_rejected(self, cls):
        loop = cls()
        with pytest.raises(ValueError, match="run backwards"):
            loop.run_until(float("nan"))
        assert isclose_zero(loop.now)  # the clock did not become NaN

    def test_valid_events_still_fire_after_a_rejected_nan(self):
        loop = EventLoop()
        seen = []
        with pytest.raises(ValueError):
            loop.schedule(float("nan"), lambda: seen.append("nan"))
        loop.schedule(1.0, lambda: seen.append("b"))
        loop.schedule(0.5, lambda: seen.append("a"))
        assert loop.run_until(10.0) == 2
        assert seen == ["a", "b"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        seen = []
        handle = loop.schedule(1.0, lambda: seen.append("x"))
        handle.cancel()
        loop.run_until(2.0)
        assert seen == []

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        loop.run_until(2.0)


class TestSafetyValve:
    def test_counters(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert loop.pending == 2
        executed = loop.run_until(5.0)
        assert executed == 2
        assert loop.processed == 2

    def test_timestamps_non_decreasing(self):
        loop = EventLoop()
        stamps = []
        for delay in [5.0, 1.0, 3.0, 1.0, 4.0]:
            loop.schedule(delay, lambda: stamps.append(loop.now))
        loop.run_until(10.0)
        assert stamps == sorted(stamps)


class TestCancelledHandleAccounting:
    """Cancelled handles must be invisible: not executed, not counted."""

    def test_processed_ignores_cancelled_events(self):
        loop = EventLoop()
        seen = []
        keep = loop.schedule(1.0, lambda: seen.append("keep"))
        for delay in (0.5, 1.5, 2.0):
            loop.schedule(delay, lambda: seen.append("drop")).cancel()
        executed = loop.run_until(3.0)
        assert seen == ["keep"]
        assert executed == 1
        assert loop.processed == 1
        assert not keep.cancelled
        assert loop.now == 3.0
        assert loop.pending == 0

    def test_cancelled_mid_heap_skipped_during_dispatch(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("a"))
        doomed = loop.schedule(2.0, lambda: seen.append("b"))
        loop.schedule(3.0, lambda: seen.append("c"))
        doomed.cancel()
        assert loop.run_until(5.0) == 2
        assert seen == ["a", "c"]
        assert loop.processed == 2


class TestTypedRows:
    """The typed loop's rows: kinds share one ``seq`` counter."""

    def make_loop(self):
        loop = TypedEventLoop()
        seen = []
        loop.bind_executors(
            lambda ms, slot: seen.append(("finish", ms, slot)),
            lambda ms, slot: seen.append(("ready", ms, slot)),
            lambda stream: seen.append(("arrival", stream)),
        )
        return loop, seen

    def test_ready_block_takes_consecutive_seqs(self):
        loop, seen = self.make_loop()
        assert loop.schedule_finish(0.5, 7, 0) == 0
        assert loop.schedule_ready_many([3.0, 1.0, 2.0, 1.0], 2, 10) == 1
        assert loop.schedule_arrival(0.1, 0) == 5
        assert sorted(loop._heap) == [
            (0.1, 5, EVENT_ARRIVAL, 0, 0),
            (0.5, 0, EVENT_FINISH, 7, 0),
            (1.0, 2, EVENT_READY, 2, 11),
            (1.0, 4, EVENT_READY, 2, 13),
            (2.0, 3, EVENT_READY, 2, 12),
            (3.0, 1, EVENT_READY, 2, 10),
        ]
        loop.cancel(4)
        assert loop.run_until(1.0) == 3
        assert seen == [("arrival", 0), ("finish", 7, 0), ("ready", 2, 11)]

    def test_arrival_rows_are_executed_and_are_not_callbacks(self):
        loop, seen = self.make_loop()
        loop.schedule_arrival(2.0, 5)
        loop.schedule_ready_many([1.0, 1.0], 3, 0)
        assert loop.callbacks_pending == 0
        assert loop.run_until(2.0) == 3
        assert seen == [("ready", 3, 0), ("ready", 3, 1), ("arrival", 5)]
