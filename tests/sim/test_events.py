"""Tests for the discrete-event loop."""

import pytest

from repro.sim.events import EventLoop


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
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(4.0, lambda: None)

    def test_run_backwards_rejected(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(ValueError):
            loop.run_until(4.0)


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
    def test_max_events_raises_on_runaway(self):
        loop = EventLoop()

        def rescheduling():
            loop.schedule(0.0, rescheduling)

        loop.schedule(0.0, rescheduling)
        with pytest.raises(RuntimeError, match="max_events"):
            loop.run_until(1.0, max_events=100)

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
