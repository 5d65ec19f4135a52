"""Tests for window metrics."""

import numpy as np
import pytest

from repro.sim.metrics import WindowObservation


def make_observation(wip, response_times=(), completions=None):
    return WindowObservation(
        index=0,
        start_time=0.0,
        end_time=30.0,
        wip=np.asarray(wip, dtype=np.float64),
        allocation=np.zeros(len(wip), dtype=np.int64),
        reward=1.0 - sum(wip),
        completions=completions or {},
        response_times=list(response_times),
    )


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

    def test_means_are_np_mean_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for size in range(1, 40):
            times = (rng.exponential(90.0, size) * rng.uniform(0.5, 2.0)).tolist()
            observation = make_observation([0], response_times=times)
            observation.response_times_by_type = {"A": times}
            expected = float(np.mean(times)).hex()
            assert observation.mean_response_time().hex() == expected
            assert observation.mean_response_time_for("A").hex() == expected
        assert observation.mean_response_time_for("B") == pytest.approx(0.0)
