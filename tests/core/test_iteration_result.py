"""Tests for per-iteration diagnostics and training-trace bookkeeping."""

import dataclasses

import numpy as np
import pytest

from repro.core.agent import IterationResult, MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.rl.ddpg import DDPGConfig

from tests.conftest import make_msd_env


class TestIterationResult:
    def test_is_a_plain_dataclass(self):
        result = IterationResult(
            iteration=0,
            dataset_size=10,
            model_loss=0.5,
            policy_rollouts=3,
            policy_mean_return=-12.0,
            eval_reward=-40.0,
            eval_mean_wip=2.0,
            eval_mean_response_time=15.0,
        )
        as_dict = dataclasses.asdict(result)
        assert as_dict["eval_reward"] == -40.0
        assert IterationResult(**as_dict) == result


class TestTrainingBookkeeping:
    @pytest.fixture(scope="class")
    def agent(self):
        config = MirasConfig(
            model=ModelConfig(hidden_sizes=(8,), epochs=3),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
                rollout_length=4,
                rollouts_per_iteration=2,
                patience=2,
            ),
            steps_per_iteration=20,
            reset_interval=10,
            iterations=2,
            eval_steps=3,
        )
        agent = MirasAgent(make_msd_env(seed=45), config, seed=45)
        agent.iterate()
        return agent

    def test_iteration_numbers_sequential(self, agent):
        assert [r.iteration for r in agent.results] == [0, 1]

    def test_dataset_sizes_accumulate(self, agent):
        assert [r.dataset_size for r in agent.results] == [20, 40]

    def test_diagnostics_populated(self, agent):
        for result in agent.results:
            assert np.isfinite(result.model_loss)
            assert result.policy_rollouts >= 1
            assert np.isfinite(result.policy_mean_return)
            assert result.eval_mean_wip >= 0
            assert result.eval_mean_response_time >= 0

    def test_iterate_extends_rather_than_resets(self, agent):
        before = len(agent.results)
        agent.iterate(iterations=1)
        assert len(agent.results) == before + 1
        assert agent.results[-1].iteration == before
