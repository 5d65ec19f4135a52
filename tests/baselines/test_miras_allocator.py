"""Tests for the MIRAS allocator adapter."""

import numpy as np
import pytest

from repro.baselines.miras_alloc import MirasAllocator
from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.rl.ddpg import DDPGConfig

from tests.conftest import make_ligo_env, make_msd_env


def tiny_trained_agent(seed=46):
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
        iterations=1,
        eval_steps=3,
    )
    agent = MirasAgent(make_msd_env(seed=seed), config, seed=seed)
    agent.iterate()
    return agent


class TestMirasAllocator:
    def test_wraps_trained_agent(self):
        agent = tiny_trained_agent()
        allocator = MirasAllocator(agent=agent)
        allocator.bind(make_msd_env(seed=99))
        allocation = allocator.allocate(np.array([10.0, 5.0, 3.0, 2.0]))
        assert allocation.sum() <= 14
        assert np.all(allocation >= 0)

    def test_matches_agent_decision(self):
        agent = tiny_trained_agent()
        allocator = MirasAllocator(agent=agent)
        allocator.bind(make_msd_env(seed=99))
        state = np.array([20.0, 8.0, 4.0, 2.0])
        assert np.array_equal(allocator.allocate(state), agent.act(state))

    def test_budget_mismatch_rejected(self):
        agent = tiny_trained_agent()
        allocator = MirasAllocator(agent=agent)
        with pytest.raises(ValueError, match="consumer budget"):
            allocator.bind(make_msd_env(seed=99, consumer_budget=20))
