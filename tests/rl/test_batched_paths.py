"""Batched RL primitives: ``ReplayBuffer.add_batch``, noise sampling,
``project_to_simplex`` and ``DDPGAgent.act_batch``.

Every K=1 path is pinned *bitwise* against its serial counterpart (the
pre-change serial bodies in tests/rl/reference_serial_policy.py) —
these are the building blocks the batched rollout engine's determinism
contract rests on.
"""

import numpy as np
import pytest

from repro.rl import ddpg
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.noise import (
    GaussianActionNoise,
    project_to_simplex,
)
from repro.rl.replay import ReplayBuffer
from repro.utils.rng import RngStream

from tests.rl import reference_serial_policy as reference


def _transitions(n, rng, state_dim=3, action_dim=3):
    states = rng.normal(size=(n, state_dim))
    actions = rng.uniform(0.0, 1.0, size=(n, action_dim))
    rewards = rng.normal(size=n)
    next_states = rng.normal(size=(n, state_dim))
    return states, actions, rewards, next_states


def _buffers_equal(a, b):
    return (
        len(a) == len(b)
        and a._cursor == b._cursor
        and a.total_added == b.total_added
        and a._states.tobytes() == b._states.tobytes()
        and a._actions.tobytes() == b._actions.tobytes()
        and a._rewards.tobytes() == b._rewards.tobytes()
        and a._next_states.tobytes() == b._next_states.tobytes()
    )


class TestAddBatch:
    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_matches_sequential_adds(self, rng, n):
        batch = _transitions(n, rng)
        serial = reference.ReferenceReplayBuffer(16, 3, 3)
        batched = ReplayBuffer(16, 3, 3)
        for row in zip(*batch):
            serial.add(*row)
        batched.add_batch(*batch)
        assert _buffers_equal(serial, batched)

    def test_wraparound_matches_sequential(self, rng):
        serial = reference.ReferenceReplayBuffer(10, 3, 3)
        batched = ReplayBuffer(10, 3, 3)
        first = _transitions(7, rng)
        second = _transitions(6, rng)  # wraps: 7 + 6 > 10
        for block in (first, second):
            for row in zip(*block):
                serial.add(*row)
        batched.add_batch(*first)
        batched.add_batch(*second)
        assert _buffers_equal(serial, batched)

    def test_oversized_batch_matches_sequential(self, rng):
        serial = reference.ReferenceReplayBuffer(8, 3, 3)
        batched = ReplayBuffer(8, 3, 3)
        block = _transitions(20, rng)  # n > capacity: keep the newest 8
        for row in zip(*block):
            serial.add(*row)
        batched.add_batch(*block)
        assert _buffers_equal(serial, batched)

    def test_empty_batch_is_noop(self, rng):
        buffer = ReplayBuffer(8, 3, 3)
        buffer.add_batch(
            np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty((0, 3))
        )
        assert len(buffer) == 0
        assert buffer.total_added == 0

    def test_shape_validation(self, rng):
        buffer = ReplayBuffer(8, 3, 3)
        states, actions, rewards, next_states = _transitions(4, rng)
        with pytest.raises(ValueError):
            buffer.add_batch(states[:, :2], actions, rewards, next_states)
        with pytest.raises(ValueError):
            buffer.add_batch(states, actions[:3], rewards, next_states)
        with pytest.raises(ValueError):
            buffer.add_batch(states, actions, rewards[:3], next_states)


class TestBatchedNoise:
    def test_gaussian_k1_bitwise_equals_serial(self):
        a = RngStream("n", np.random.SeedSequence(4))
        b = RngStream("n", np.random.SeedSequence(4))
        serial = reference.ReferenceGaussianActionNoise(sigma=0.3).sample(3, a)
        batched = GaussianActionNoise(sigma=0.3).sample(1, 3, b)
        assert batched.shape == (1, 3)
        assert serial.tobytes() == batched[0].tobytes()

    def test_project_batch_rows_bitwise_equal_serial(self, rng):
        vectors = rng.normal(size=(6, 4))
        batched = project_to_simplex(vectors)
        for row, projected in zip(vectors, batched):
            expected = reference.project_to_simplex(row)
            assert expected.tobytes() == projected.tobytes()

    def test_project_batch_empty(self):
        out = project_to_simplex(np.empty((0, 4)))
        assert out.shape == (0, 4)


def _twin_agents(exploration="parameter", seed=0, **overrides):
    """(serial oracle, today's agent) on the same seed."""

    def build(cls):
        config = DDPGConfig(
            hidden_sizes=(16, 16),
            batch_size=8,
            exploration=exploration,
            **overrides,
        )
        return cls(
            3, 3, config=config,
            rng=RngStream("t", np.random.SeedSequence(seed)),
        )

    return build(reference.ReferenceDDPGAgent), build(DDPGAgent)


class TestActBatch:
    @pytest.mark.parametrize(
        "exploration", ["parameter", "action-gaussian"]
    )
    def test_k1_bitwise_equals_act(self, exploration, monkeypatch):
        if exploration == "action-gaussian":
            monkeypatch.setattr(ddpg, "ACTION_NOISE_SIGMA", 0.4)
        serial, batched = _twin_agents(exploration=exploration)
        for i in range(30):
            state = np.array([float(i), 1.0, 0.5])
            a1 = serial.act(state, explore=True)
            a2 = batched.act_batch(state[np.newaxis], explore=True)
            assert a2.shape == (1, 3)
            assert a1.tobytes() == a2[0].tobytes()
        assert serial.exploration_actions == batched.exploration_actions
        assert serial.constraint_violations == batched.constraint_violations

    def test_k1_greedy_bitwise_equals_act(self):
        serial, batched = _twin_agents()
        state = np.array([2.0, 1.0, 0.5])
        a1 = serial.act(state, explore=False)
        a2 = batched.act_batch(state[np.newaxis], explore=False)
        assert a1.tobytes() == a2[0].tobytes()

    def test_batch_rows_are_simplexes(self):
        _, agent = _twin_agents()
        states = np.abs(
            RngStream("s", np.random.SeedSequence(9)).normal(size=(12, 3))
        )
        actions = agent.act_batch(states, explore=True)
        assert actions.shape == (12, 3)
        assert np.allclose(actions.sum(axis=1), 1.0)
        assert np.all(actions >= 0)

    def test_store_batch_matches_store(self, rng):
        serial, batched = _twin_agents()
        states, actions, rewards, next_states = _transitions(5, rng)
        for row in zip(states, actions, rewards, next_states):
            serial.store(*row)
        batched.store_batch(states, actions, rewards, next_states)
        assert _buffers_equal(serial.replay, batched.replay)
