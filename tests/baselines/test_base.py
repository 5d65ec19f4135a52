"""Tests for the allocator interface, apportionment, and rate estimators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.base import (
    Allocator,
    TaskArrivalRateEstimator,
    largest_remainder_allocation,
)
from repro.sim.metrics import WindowObservation

from tests.conftest import make_msd_env


def make_observation(publishes=None, completions=None):
    return WindowObservation(
        index=0,
        start_time=0.0,
        end_time=30.0,
        wip=np.zeros(4),
        allocation=np.zeros(4, dtype=np.int64),
        reward=1.0,
        task_publishes=publishes or {},
        task_completions=completions or {},
    )


class TestLargestRemainder:
    def test_sums_to_budget(self):
        allocation = largest_remainder_allocation(np.array([1.0, 2.0, 3.0]), 10)
        assert allocation.sum() == 10

    def test_proportionality(self):
        allocation = largest_remainder_allocation(np.array([1.0, 1.0, 2.0]), 8)
        assert allocation.tolist() == [2, 2, 4]

    def test_zero_weights_fall_back_to_uniform(self):
        allocation = largest_remainder_allocation(np.zeros(4), 8)
        assert allocation.tolist() == [2, 2, 2, 2]

    def test_negative_weights_clipped(self):
        allocation = largest_remainder_allocation(np.array([-5.0, 1.0]), 4)
        assert allocation.tolist() == [0, 4]

    def test_zero_budget(self):
        assert largest_remainder_allocation(np.ones(3), 0).sum() == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_allocation(np.ones(3), -1)

    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=12),
        st.integers(0, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_exact_and_non_negative(self, weights, budget):
        allocation = largest_remainder_allocation(np.array(weights), budget)
        assert int(allocation.sum()) == budget
        assert np.all(allocation >= 0)


class TestTaskArrivalRateEstimator:
    def test_first_window_sets_rate(self):
        estimator = TaskArrivalRateEstimator(2, window_length=30.0)
        rates = estimator.update(
            make_observation({"A": 30, "B": 60}), ("A", "B")
        )
        assert rates[0] == pytest.approx(1.0)
        assert rates[1] == pytest.approx(2.0)

    def test_ewma_smooths(self):
        estimator = TaskArrivalRateEstimator(1, window_length=30.0, alpha=0.5)
        estimator.update(make_observation({"A": 30}), ("A",))
        rates = estimator.update(make_observation({"A": 90}), ("A",))
        assert rates[0] == pytest.approx(0.5 * 3.0 + 0.5 * 1.0)

    def test_rate_decays_after_burst(self):
        """The DRS-unresponsiveness mechanism: backlog is invisible."""
        estimator = TaskArrivalRateEstimator(1, window_length=30.0, alpha=0.3)
        estimator.update(make_observation({"A": 900}), ("A",))  # burst
        for _ in range(10):
            rates = estimator.update(make_observation({"A": 3}), ("A",))
        assert rates[0] < 1.0  # decayed despite any remaining backlog

    def test_reset(self):
        estimator = TaskArrivalRateEstimator(1, window_length=30.0)
        estimator.update(make_observation({"A": 30}), ("A",))
        estimator.reset()
        assert estimator.rates[0] == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TaskArrivalRateEstimator(0, 30.0)
        with pytest.raises(ValueError):
            TaskArrivalRateEstimator(1, 0.0)
        with pytest.raises(ValueError):
            TaskArrivalRateEstimator(1, 30.0, alpha=0.0)


class TestAllocatorBudgetGuard:
    def test_check_rejects_over_budget(self):
        class Bad(Allocator):
            name = "bad"

            def allocate(self, wip, observation=None):
                return self._check(np.full(self.num_services, 100))

        allocator = Bad()
        allocator.bind(make_msd_env())
        with pytest.raises(RuntimeError, match="infeasible"):
            allocator.allocate(np.zeros(4))
