"""Tests for the model-backed environment and reward functions."""

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.refinement import RefinedModel
from repro.core.reward import reward_eq1
from repro.sim.env import allocation_from_simplex


@pytest.fixture
def model_env(rng):
    dataset = TransitionDataset(2, 2)
    data_rng = np.random.default_rng(3)
    for _ in range(100):
        w = data_rng.uniform(0, 30, 2)
        m = data_rng.uniform(0, 5, 2)
        dataset.add(w, m, np.maximum(w + 1.0 - 2.0 * m, 0.0))
    model = EnvironmentModel(2, 2, hidden_sizes=(16,), rng=rng.fork("m"))
    model.fit(dataset, epochs=20)
    zero = np.zeros(2)  # no boundary region: the raw model, unrefined
    return BatchedModelEnv(
        RefinedModel(model, zero, zero, rng=rng.fork("r")),
        dataset, consumer_budget=10, rollout_length=5, rng=rng,
    )


class TestRewardFunctions:
    def test_eq1_value(self):
        rewards = reward_eq1(np.array([[2.0, 3.0], [0.5, 0.0]]))
        assert rewards.tolist() == [-4.0, 0.5]

    def test_eq1_empty_system(self):
        assert reward_eq1(np.zeros((1, 3))).tolist() == [1.0]

    def test_eq1_rejects_negative_wip(self):
        with pytest.raises(ValueError):
            reward_eq1(np.array([[-1.0]]))

    def test_eq1_rejects_nan_wip(self):
        with pytest.raises(ValueError, match="nan"):
            reward_eq1(np.array([[1.0, 2.0], [np.nan, 0.0]]))

    def test_eq1_takes_a_batch(self):
        with pytest.raises(ValueError, match="batch"):
            reward_eq1(np.array([1.0, 2.0]))


class TestModelEnv:
    def test_reset_samples_dataset_state(self, model_env):
        state = model_env.reset()
        assert state.shape == (1, 2)
        assert np.all(state >= 0)

    def test_step_before_reset_raises(self, model_env):
        with pytest.raises(RuntimeError, match="reset"):
            model_env.step(np.array([[1.0, 1.0]]))

    def test_step_returns_reward_consistent_with_eq1(self, model_env):
        model_env.reset()
        next_state, reward, done = model_env.step(np.array([[2.0, 2.0]]))
        assert reward.tobytes() == reward_eq1(next_state).tobytes()
        assert not done

    def test_done_after_rollout_length(self, model_env):
        model_env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done = model_env.step(np.array([[2.0, 2.0]]))
            steps += 1
        assert steps == 5

    def test_budget_enforced(self, model_env):
        model_env.reset()
        with pytest.raises(ValueError, match="budget"):
            model_env.step(np.array([[8.0, 8.0]]))

    def test_simplex_step(self, model_env):
        model_env.reset()
        next_state, reward, done = model_env.step(
            allocation_from_simplex(np.array([[0.5, 0.5]]), 10)
        )
        assert next_state.shape == (1, 2)

    def test_allocation_from_simplex(self, model_env):
        allocation = allocation_from_simplex(
            np.array([[0.7, 0.3]]), model_env.consumer_budget
        )
        assert allocation.tolist() == [[7, 3]]
        with pytest.raises(ValueError):
            allocation_from_simplex(np.array([[0.7, 0.7]]), 10)

    def test_states_never_negative(self, model_env):
        model_env.reset()
        for _ in range(5):
            state, _, _ = model_env.step(np.array([[5.0, 5.0]]))
            assert np.all(state >= 0)
