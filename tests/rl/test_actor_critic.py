"""Tests for the actor and critic networks."""

import numpy as np
import pytest

from repro.rl import actor as actor_module
from repro.rl.actor import Actor
from repro.rl.critic import Critic
from repro.utils.rng import RngStream


@pytest.fixture
def actor(rng):
    return Actor(
        4, 4, hidden_sizes=(16, 16), rng=rng.fork("a"), weight_decay=1e-4
    )


@pytest.fixture
def critic(rng):
    return Critic(4, 4, hidden_sizes=(16, 16), rng=rng.fork("c"))


class TestActor:
    def test_action_is_distribution(self, actor, rng):
        for _ in range(20):
            action = actor.act(rng.uniform(0, 500, size=(1, 4)))[0]
            assert action.sum() == pytest.approx(1.0)
            assert np.all(action >= 0)

    def test_output_mixing_keeps_actions_off_corners(self, rng, monkeypatch):
        monkeypatch.setattr(actor_module, "OUTPUT_MIXING", 0.1)
        actor = Actor(4, 4, hidden_sizes=(8,), rng=rng, weight_decay=1e-4)
        action = actor.act(np.array([[1000.0, 0, 0, 0]]))[0]
        assert np.all(action >= 0.1 / 4 - 1e-12)

    def test_batch_matches_single(self, actor, rng):
        states = rng.uniform(0, 100, size=(3, 4))
        batch = actor.act(states)
        for i in range(3):
            assert np.allclose(batch[i], actor.act(states[i : i + 1])[0])

    def test_normalize_is_log_compressed(self, actor):
        small = actor.normalize(np.zeros((1, 4)))
        large = actor.normalize(np.full((1, 4), 1e4))
        assert np.all(small == 0)
        assert np.all(large < 3.0)  # bounded even far out of range

    def test_target_network_starts_identical(self, actor, rng):
        states = rng.uniform(0, 100, size=(3, 4))
        target = actor.actions(actor.normalize(states), actor.target_network)
        assert np.allclose(actor.act(states), target)

    def test_policy_gradient_moves_toward_higher_q(self, actor, rng):
        """Ascending a fixed dQ/da direction should raise that action dim."""
        states = rng.uniform(0, 50, size=(16, 4))
        direction = np.zeros((16, 4))
        direction[:, 2] = 1.0  # pretend Q increases with a[2]
        before = actor.act(states)[:, 2].mean()
        for _ in range(100):
            actor.policy_gradient_step(actor.normalize(states), lambda _: direction)
        after = actor.act(states)[:, 2].mean()
        assert after > before

    def test_policy_gradient_shape_check(self, actor):
        with pytest.raises(ValueError):
            actor.policy_gradient_step(np.zeros((2, 4)), lambda _: np.zeros((3, 4)))


class TestCritic:
    def test_q_value_shape(self, critic, rng):
        features = critic.normalize_states(rng.uniform(0, 100, size=(5, 4)))
        q = critic.q_features(features, np.full((5, 4), 0.25))
        assert q.shape == (5, 1)

    def test_train_batch_reduces_loss(self, critic, rng):
        states = rng.uniform(0, 100, size=(64, 4))
        features = critic.normalize_states(states)
        actions = rng.generator.dirichlet(np.ones(4), size=64)
        targets = -states.sum(axis=1, keepdims=True) / 10.0
        first = critic.train_features(features, actions, targets)
        for _ in range(300):
            last = critic.train_features(features, actions, targets)
        assert last < first

    def test_action_gradient_shape(self, critic, rng):
        features = critic.normalize_states(rng.uniform(0, 100, size=(5, 4)))
        _, grad = critic.q_and_action_gradient(features, np.full((5, 4), 0.25))
        assert grad.shape == (5, 4)

    def test_action_gradient_matches_numeric(self, critic, rng):
        features = critic.normalize_states(rng.uniform(0, 100, size=(2, 4)))
        actions = np.full((2, 4), 0.25)
        _, analytic = critic.q_and_action_gradient(features, actions)
        eps = 1e-6
        for i in range(2):
            for j in range(4):
                up = actions.copy()
                up[i, j] += eps
                down = actions.copy()
                down[i, j] -= eps
                numeric = (
                    critic.q_features(features, up).sum()
                    - critic.q_features(features, down).sum()
                ) / (2 * eps) / critic.reward_scale
                assert analytic[i, j] == pytest.approx(numeric, abs=1e-5)

    def test_target_network_lags_training(self, critic, rng):
        features = critic.normalize_states(rng.uniform(0, 100, size=(32, 4)))
        actions = np.full((32, 4), 0.25)
        before = critic.q_features(features, actions, target=True)
        for _ in range(50):
            critic.train_features(features, actions, np.full((32, 1), -5.0))
        after_target = critic.q_features(features, actions, target=True)
        after_online = critic.q_features(features, actions)
        assert np.allclose(before, after_target)  # target never updated here
        assert not np.allclose(after_online, after_target)

    def test_requires_hidden_layer(self, rng):
        with pytest.raises(ValueError):
            Critic(4, 4, hidden_sizes=(), rng=rng)
