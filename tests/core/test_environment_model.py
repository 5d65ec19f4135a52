"""Tests for the neural environment model."""

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.utils.rng import RngStream


def linear_dynamics_dataset(n=400, seed=0):
    """Synthetic queue-like dynamics: w' = max(w + inflow - 3*m, 0)."""
    rng = np.random.default_rng(seed)
    dataset = TransitionDataset(2, 2)
    for _ in range(n):
        w = rng.uniform(0, 100, 2)
        m = rng.uniform(0, 5, 2)
        inflow = np.array([4.0, 2.0])
        w_next = np.maximum(w + inflow - 3.0 * m, 0.0)
        dataset.add(w, m, w_next)
    return dataset


@pytest.fixture
def model(rng):
    return EnvironmentModel(2, 2, hidden_sizes=(32, 32), rng=rng)


class TestFit:
    def test_loss_decreases(self, model):
        history = model.fit(linear_dynamics_dataset(), epochs=30)
        assert history[-1] < history[0]

    def test_learns_queue_dynamics(self, model):
        model.fit(linear_dynamics_dataset(), epochs=80)
        w = np.array([50.0, 50.0])
        m = np.array([2.0, 4.0])
        expected = np.maximum(w + np.array([4.0, 2.0]) - 3.0 * m, 0.0)
        predicted = model.predict(w, m)
        assert np.allclose(predicted, expected, atol=6.0)

    def test_evaluate_on_heldout(self, model):
        model.fit(linear_dynamics_dataset(n=320), epochs=40)
        states, actions, next_states = linear_dynamics_dataset(
            n=80, seed=1
        ).arrays()
        error = model.predict(states, actions) - next_states
        # One-step error on unseen transitions, in units of their spread.
        assert np.mean(error**2) < 0.05 * np.var(next_states)


class TestPredict:
    def test_single_and_batch_agree(self, model):
        model.fit(linear_dynamics_dataset(), epochs=5)
        w = np.array([10.0, 20.0])
        m = np.array([1.0, 2.0])
        single = model.predict(w, m)
        batch = model.predict(w[None, :], m[None, :])
        assert np.allclose(single, batch[0])

    def test_predictions_non_negative(self, model):
        model.fit(linear_dynamics_dataset(), epochs=5)
        predicted = model.predict(np.array([0.0, 0.0]), np.array([5.0, 5.0]))
        assert np.all(predicted >= 0)

    def test_dimension_checks(self, model):
        with pytest.raises(ValueError):
            model.predict(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            model.predict(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRollout:
    def test_rollout_shape_and_feedback(self, model):
        model.fit(linear_dynamics_dataset(), epochs=40)
        actions = np.tile(np.array([2.0, 2.0]), (10, 1))
        trajectory = model.rollout(np.array([80.0, 80.0]), actions)
        assert trajectory.shape == (10, 2)
        # Queue drains under heavy allocation: trend should be downward.
        assert trajectory[-1].sum() < trajectory[0].sum()

    def test_rollout_states_non_negative(self, model):
        model.fit(linear_dynamics_dataset(), epochs=10)
        actions = np.tile(np.array([5.0, 5.0]), (20, 1))
        trajectory = model.rollout(np.array([1.0, 1.0]), actions)
        assert np.all(trajectory >= 0)


class TestDeltaParameterisation:
    def test_delta_mode_extrapolates_better_than_raw(self, rng):
        """Deltas are bounded by rates, so the model generalises to states
        beyond the training range — the property bursts rely on."""
        dataset = linear_dynamics_dataset()
        delta_model = EnvironmentModel(
            2, 2, hidden_sizes=(32, 32), rng=rng.fork("d")
        )
        delta_model.fit(dataset, epochs=60)
        w = np.array([500.0, 500.0])  # 5x the training range
        m = np.array([5.0, 5.0])
        expected = w + np.array([4.0, 2.0]) - 15.0
        predicted = delta_model.predict(w, m)
        assert np.allclose(predicted, expected, atol=30.0)
