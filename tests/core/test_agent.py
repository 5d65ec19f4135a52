"""Tests for the MIRAS agent (Algorithm 2), scaled down for test speed."""

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.rl.ddpg import DDPGConfig

from tests.conftest import make_msd_env


def tiny_config(**overrides):
    defaults = dict(
        model=ModelConfig(hidden_sizes=(8, 8), epochs=5),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(16, 16), batch_size=8),
            rollout_length=5,
            rollouts_per_iteration=3,
            patience=2,
        ),
        steps_per_iteration=30,
        reset_interval=10,
        iterations=2,
        eval_steps=5,
    )
    defaults.update(overrides)
    return MirasConfig(**defaults)


@pytest.fixture
def agent():
    return MirasAgent(make_msd_env(seed=11), tiny_config(), seed=11)


class TestCollection:
    def test_collect_grows_dataset(self, agent):
        added = agent.collect_real_interactions(10, random_fraction=1.0)
        assert added == 10
        assert len(agent.dataset) == 10

    def test_collected_actions_are_feasible(self, agent):
        agent.collect_real_interactions(20, random_fraction=1.0)
        _, actions, _ = agent.dataset.arrays()
        assert np.all(actions >= 0)
        assert np.all(actions.sum(axis=1) <= agent.env.consumer_budget)
        assert np.all(actions == np.floor(actions))  # executed integers

    def test_collect_also_fills_replay(self, agent):
        agent.collect_real_interactions(10, random_fraction=1.0)
        assert len(agent.ddpg.replay) == 10

    def test_invalid_steps(self, agent):
        with pytest.raises(ValueError):
            agent.collect_real_interactions(0)

    def test_burst_injection_produces_high_wip_states(self):
        # Four collection resets, each injecting a burst with p = 0.3.
        agent = MirasAgent(make_msd_env(seed=12), tiny_config(), seed=12)
        agent.collect_real_interactions(40, random_fraction=1.0)
        states, _, _ = agent.dataset.arrays()
        assert states.max() > 50  # bursts visible in the dataset


class TestModelTraining:
    def test_train_model_builds_refined_model(self, agent):
        agent.collect_real_interactions(30, random_fraction=1.0)
        loss = agent.train_model()
        assert np.isfinite(loss)
        assert agent.refined_model is not None

    def test_build_model_env_requires_model(self, agent):
        with pytest.raises(RuntimeError, match="train_model"):
            agent.build_batched_model_env()


class TestPolicyTraining:
    def test_train_policy_runs_rollouts(self, agent):
        agent.collect_real_interactions(30, random_fraction=1.0)
        agent.train_model()
        rollouts, mean_return = agent.train_policy()
        assert 1 <= rollouts <= 3
        assert np.isfinite(mean_return)


class TestIterate:
    def test_full_algorithm2_loop(self, agent):
        results = agent.iterate()
        assert len(results) == 2
        assert results[0].dataset_size == 30
        assert results[1].dataset_size == 60
        assert all(np.isfinite(r.eval_reward) for r in results)

    def test_act_returns_feasible_allocation(self, agent):
        agent.iterate(iterations=1)
        allocation = agent.act(np.array([10.0, 5.0, 3.0, 2.0]))
        assert allocation.sum() <= agent.env.consumer_budget
        assert np.all(allocation >= 0)

    def test_evaluate_records_metrics(self, agent):
        agent.iterate(iterations=1)
        result = agent.evaluate()
        assert np.isfinite(result.eval_reward)
        assert result.eval_mean_wip >= 0

    @pytest.mark.parametrize("count", [0, -1])
    def test_explicit_count_below_one_is_rejected(self, agent, count):
        """0 is not "use the config", and -1 does not run nothing."""
        with pytest.raises(ValueError, match="iterations"):
            agent.iterate(iterations=count)
        assert agent.results == [] and len(agent.dataset) == 0
