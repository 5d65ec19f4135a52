"""Tests for the DDPG agent, including a closed-loop learning check."""

import numpy as np
import pytest

from benchmarks.run_training_bench import (
    UPDATE_PEAK_CEILING,
    update_peak_bytes,
    warmed_update_agent,
)
from repro.rl import actor, critic, ddpg
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.utils.rng import RngStream


def make_agent(exploration="parameter", seed=0, **overrides):
    config = DDPGConfig(
        hidden_sizes=(32, 32),
        batch_size=16,
        exploration=exploration,
        **overrides,
    )
    return DDPGAgent(
        3, 3, config=config, rng=RngStream("t", np.random.SeedSequence(seed))
    )


class TestConfig:
    def test_defaults_valid(self):
        DDPGConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 1.5},
            {"batch_size": 0},
            {"exploration": "epsilon-greedy"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DDPGConfig(**kwargs)

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("entropy_weight", -0.1),
            ("actor_weight_decay", -1e-3),
        ],
    )
    def test_nan_and_out_of_range_rejected(self, name, bad):
        for value in (float("nan"), bad):
            with pytest.raises(ValueError, match=name):
                DDPGConfig(**{name: value})


class TestAllocations:
    def test_warmed_update_peak_is_under_the_ceiling(self):
        """Hidden layers, the optimiser and the Polyak step compute in
        preallocated buffers, so one update allocates activation-sized
        arrays only, never a parameter-arena-sized one."""
        agent = warmed_update_agent()
        assert update_peak_bytes(agent) <= UPDATE_PEAK_CEILING == 256 * 1024


class TestActing:
    def test_greedy_action_is_simplex(self):
        agent = make_agent()
        action = agent.act_greedy(np.array([5.0, 2.0, 1.0]))
        assert action.sum() == pytest.approx(1.0)
        assert np.all(action >= 0)

    def test_parameter_noise_exploration_stays_on_simplex(self):
        """The paper's key claim: parameter noise never violates the
        constraint, unlike action-space noise."""
        agent = make_agent(exploration="parameter")
        for i in range(100):
            action = agent.act(np.array([float(i), 1.0, 0.5]), explore=True)
            assert action.sum() == pytest.approx(1.0)
            assert np.all(action >= 0)
        assert agent.constraint_violations == 0

    def test_action_noise_violates_and_projects(self, monkeypatch):
        monkeypatch.setattr(ddpg, "ACTION_NOISE_SIGMA", 0.5)
        agent = make_agent(exploration="action-gaussian")
        for i in range(100):
            action = agent.act(np.array([float(i), 1.0, 0.5]), explore=True)
            # Executed action is repaired to the simplex...
            assert action.sum() == pytest.approx(1.0)
            assert np.all(action >= 0)
        # ...but raw noisy actions violated the constraint along the way.
        assert agent.constraint_violations > 50

    def test_exploration_differs_from_greedy(self, monkeypatch):
        monkeypatch.setattr(ddpg, "PARAM_NOISE_SIGMA", 0.5)
        agent = make_agent(exploration="parameter")
        state = np.array([5.0, 2.0, 1.0])
        agent.refresh_perturbation()
        explored = agent.act(state, explore=True)
        greedy = agent.act_greedy(state)
        assert not np.allclose(explored, greedy)


class TestParameterNoiseAdaptation:
    def test_adapt_without_data_returns_none(self):
        agent = make_agent()
        agent.refresh_perturbation()
        assert agent.adapt_parameter_noise() is None

    def test_adapt_measures_distance(self, monkeypatch):
        monkeypatch.setattr(ddpg, "PARAM_NOISE_SIGMA", 0.3)
        agent = make_agent()
        for i in range(20):
            agent.store(
                np.array([i, 1.0, 0.5]),
                np.full(3, 1 / 3),
                -float(i),
                np.array([i + 1, 1.0, 0.5]),
            )
        agent.refresh_perturbation()
        distance = agent.adapt_parameter_noise()
        assert distance is not None and distance >= 0


class TestUpdates:
    def test_update_empty_buffer_raises(self):
        with pytest.raises(RuntimeError):
            make_agent().update()

    def test_update_runs_and_counts(self):
        agent = make_agent()
        rng = RngStream("d", np.random.SeedSequence(1))
        for _ in range(32):
            s = rng.uniform(0, 10, size=3)
            agent.store(s, np.full(3, 1 / 3), -float(s.sum()), s)
        loss, q = agent.update()
        assert np.isfinite(loss) and np.isfinite(q)
        assert agent.updates_done == 1
        mean_loss = agent.update_many(5)
        assert np.isfinite(mean_loss)
        assert agent.updates_done == 6

    def test_entropy_bonus_pulls_toward_uniform(self, monkeypatch):
        """With a flat critic, the entropy term should spread the policy."""
        monkeypatch.setattr(critic, "REWARD_SCALE", 1e9)
        agent = make_agent(seed=5, entropy_weight=0.5)
        # Gigantic reward scale makes dQ/da ~ 0: entropy dominates.
        rng = RngStream("e", np.random.SeedSequence(2))
        state = np.array([5.0, 1.0, 0.5])
        for _ in range(64):
            agent.store(state, np.array([0.8, 0.1, 0.1]), -1.0, state)
        before = agent.act_greedy(state)
        for _ in range(200):
            agent.update()
        after = agent.act_greedy(state)
        spread_before = float(np.max(before) - np.min(before))
        spread_after = float(np.max(after) - np.min(after))
        assert spread_after <= spread_before + 1e-9

    def test_learning_on_synthetic_bandit(self, monkeypatch):
        """One-step environment where allocating to dim 0 is optimal:
        reward = a[0].  DDPG should learn to put most mass on dim 0."""
        monkeypatch.setattr(actor, "ACTOR_LEARNING_RATE", 1e-3)
        monkeypatch.setattr(critic, "REWARD_SCALE", 1.0)
        agent = make_agent(seed=3, gamma=0.0)
        rng = RngStream("bandit", np.random.SeedSequence(9))
        state = np.array([1.0, 1.0, 1.0])
        for step in range(600):
            if step % 25 == 0:
                agent.refresh_perturbation()
            action = agent.act(state, explore=True)
            reward = float(action[0])
            agent.store(state, action, reward, state)
            if len(agent.replay) >= 16:
                agent.update()
        final = agent.act_greedy(state)
        assert final[0] > 0.6  # most of the budget on the rewarded service
