"""Tests for window metrics."""

import numpy as np
import pytest

from repro.sim.metrics import WindowObservation, reward_from_wip


def make_observation(wip, response_times=(), completions=None):
    return WindowObservation(
        index=0,
        start_time=0.0,
        end_time=30.0,
        wip=np.asarray(wip, dtype=np.float64),
        allocation=np.zeros(len(wip), dtype=np.int64),
        reward=reward_from_wip(np.asarray(wip, dtype=np.float64)),
        completions=completions or {},
        response_times=list(response_times),
    )


class TestRewardFromWip:
    def test_eq1(self):
        assert reward_from_wip(np.array([3.0, 4.0])) == pytest.approx(-6.0)

    def test_empty_system(self):
        assert reward_from_wip(np.zeros(5)) == pytest.approx(1.0)


class TestWindowObservation:
    def test_totals(self):
        observation = make_observation(
            [1, 2], completions={"A": 3, "B": 2}
        )
        assert observation.total_completions == 5

    def test_mean_response_time(self):
        observation = make_observation([0], response_times=[10.0, 20.0])
        assert observation.mean_response_time() == pytest.approx(15.0)

    def test_mean_response_time_empty_is_zero(self):
        assert make_observation([0]).mean_response_time() == 0.0
