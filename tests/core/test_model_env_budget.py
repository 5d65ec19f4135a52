"""Budget and rollout-boundary tests for the model-backed environment,
using a real learnt model from MSD data (integration-flavoured)."""

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.rl.ddpg import DDPGConfig
from repro.sim.env import allocation_from_simplex

from tests.conftest import make_msd_env

ALLOCATION = np.array([[4.0, 4.0, 3.0, 3.0]])


@pytest.fixture(scope="module")
def trained_model_env():
    config = MirasConfig(
        model=ModelConfig(hidden_sizes=(12, 12), epochs=10),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
            rollout_length=6,
            rollouts_per_iteration=2,
            patience=2,
        ),
        steps_per_iteration=40,
        reset_interval=20,
        iterations=1,
        eval_steps=3,
    )
    agent = MirasAgent(make_msd_env(seed=44), config, seed=44)
    agent.collect_real_interactions(40, random_fraction=1.0)
    agent.train_model()
    return agent.build_batched_model_env()


class TestModelEnvWithLearntModel:
    def test_rollout_terminates_at_configured_length(self, trained_model_env):
        env = trained_model_env
        env.reset()
        steps = 0
        done = False
        while not done:
            _, _, done = env.step(ALLOCATION)
            steps += 1
        assert steps == 6

    def test_reset_restarts_rollout(self, trained_model_env):
        env = trained_model_env
        env.reset()
        for _ in range(6):
            env.step(ALLOCATION)
        env.reset()
        _, _, done = env.step(ALLOCATION)
        assert not done

    def test_states_match_dataset_dimensionality(self, trained_model_env):
        state = trained_model_env.reset()
        assert state.shape == (1, 4)
        assert np.all(state >= 0)

    def test_model_env_rejects_budget_violation(self, trained_model_env):
        trained_model_env.reset()
        with pytest.raises(ValueError, match="budget"):
            trained_model_env.step(np.array([[10.0, 10.0, 10.0, 10.0]]))

    def test_simplex_path_consistent_with_manual(self, trained_model_env):
        env = trained_model_env
        simplex = np.array([[0.4, 0.3, 0.2, 0.1]])
        executed = allocation_from_simplex(simplex, env.consumer_budget)
        manual = np.floor(env.consumer_budget * simplex)
        assert np.array_equal(executed, manual)
        assert executed.sum() <= env.consumer_budget
        env.reset()
        state, _, _ = env.step(executed)
        assert state.shape == (1, 4)
