"""Batched synthetic-rollout engine: K=1 byte-identity vs the serial
:class:`ModelEnv` it replaced (tests/core/reference_model_env.py), batch
shapes, and validation errors.

The determinism contract under test: ``BatchedModelEnv`` with
``batch_size=1`` draws the same RNG values and runs the same (1, n)
model forwards as :class:`ModelEnv`, so trajectories are *byte*
identical — not merely allclose — under cloned streams.
"""

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.refinement import RefinedModel
from repro.sim.env import allocation_from_simplex
from repro.utils.rng import RngStream

from tests.core.reference_model_env import ModelEnv
from tests.rl.reference_serial_policy import ReferenceRefinedModel


def _build_fixture():
    """A small trained model + dataset, deterministic by construction."""
    data_rng = RngStream("data", np.random.SeedSequence(7))
    dataset = TransitionDataset(state_dim=4, action_dim=4)
    for _ in range(60):
        state = data_rng.uniform(0.0, 20.0, size=4)
        action = data_rng.uniform(0.0, 3.0, size=4)
        next_state = np.maximum(
            state - action + data_rng.normal(0.0, 0.5, size=4), 0.0
        )
        dataset.add(state, action, next_state)
    model = EnvironmentModel(
        4, 4, hidden_sizes=(8,), rng=RngStream("m", np.random.SeedSequence(3))
    )
    model.fit(dataset, epochs=3, batch_size=16)
    return model, dataset


@pytest.fixture(scope="module")
def trained():
    return _build_fixture()


def _refined(model, rng_seed=5, cls=RefinedModel):
    return cls(
        model,
        tau=np.full(4, 5.0),
        omega=np.full(4, 9.0),
        rng=RngStream("refine", np.random.SeedSequence(rng_seed)),
    )


ACTIONS = np.array([0.4, 0.3, 0.2, 0.1])


class TestBatchOneByteIdentity:
    def test_trajectory_bitwise_equal_to_model_env(self, trained):
        model, dataset = trained
        serial = ModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=6,
            rng=RngStream("e", np.random.SeedSequence(11)),
        )
        batched = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=6,
            batch_size=1, rng=RngStream("e", np.random.SeedSequence(11)),
        )
        s1 = serial.reset()
        s2 = batched.reset()
        assert s2.shape == (1, 4)
        assert s1.tobytes() == s2[0].tobytes()
        alloc1 = serial.allocation_from_simplex(ACTIONS)
        alloc2 = allocation_from_simplex(ACTIONS[np.newaxis], 10)
        assert alloc1.tobytes() == alloc2[0].tobytes()
        done1 = done2 = False
        steps = 0
        while not done1:
            n1, rw1, done1 = serial.step(alloc1)
            n2, rw2, done2 = batched.step(alloc2)
            assert n1.tobytes() == n2[0].tobytes()
            assert np.float64(rw1).tobytes() == rw2[0].tobytes()
            steps += 1
        assert done2
        assert steps == 6
        assert serial.model.lend_count == batched.model.lend_count
        assert serial.model.lend_count > 0, "fixture never exercised lending"

    def test_refined_predict_batch_row_matches_predict(self, trained):
        model, _ = trained
        a = _refined(model, rng_seed=21, cls=ReferenceRefinedModel)
        b = _refined(model, rng_seed=21)
        state = np.array([1.0, 2.0, 12.0, 0.5])
        out1 = a.predict(state, ACTIONS)
        out2 = b.predict_batch(state[np.newaxis], ACTIONS[np.newaxis])
        assert out2.shape == (1, 4)
        assert out1.tobytes() == out2[0].tobytes()
        assert a.lend_count == b.lend_count


class TestBatchShapes:
    def test_k5_shapes(self, trained):
        model, dataset = trained
        env = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=4,
            batch_size=5, rng=RngStream("e", np.random.SeedSequence(2)),
        )
        states = env.reset()
        assert states.shape == (5, 4)
        allocs = allocation_from_simplex(np.tile(ACTIONS, (5, 1)), 10)
        assert allocs.shape == (5, 4)
        next_states, rewards, done = env.step(allocs)
        assert next_states.shape == (5, 4)
        assert rewards.shape == (5,)
        assert not done
        assert env.total_steps == 5

    def test_reset_override_batch_size(self, trained):
        model, dataset = trained
        env = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=4,
            batch_size=2, rng=RngStream("e", np.random.SeedSequence(2)),
        )
        assert env.reset(3).shape == (3, 4)

    def test_done_at_rollout_length(self, trained):
        model, dataset = trained
        env = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=3,
            batch_size=2, rng=RngStream("e", np.random.SeedSequence(2)),
        )
        env.reset()
        allocs = allocation_from_simplex(np.tile(ACTIONS, (2, 1)), 10)
        flags = [env.step(allocs)[2] for _ in range(3)]
        assert flags == [False, False, True]


class TestValidation:
    def test_step_before_reset_raises(self, trained):
        model, dataset = trained
        env = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=3,
            rng=RngStream("e", np.random.SeedSequence(2)),
        )
        with pytest.raises(RuntimeError):
            env.step(np.tile(ACTIONS, (1, 1)))

    def test_budget_violation_raises(self, trained):
        model, dataset = trained
        env = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=3,
            batch_size=2, rng=RngStream("e", np.random.SeedSequence(2)),
        )
        env.reset()
        bad = np.full((2, 4), 4.0)  # sums to 16 > 10
        with pytest.raises(ValueError):
            env.step(bad)

    def test_wrong_batch_shape_raises(self, trained):
        model, dataset = trained
        env = BatchedModelEnv(
            _refined(model), dataset, consumer_budget=10, rollout_length=3,
            batch_size=2, rng=RngStream("e", np.random.SeedSequence(2)),
        )
        env.reset()
        with pytest.raises(ValueError):
            env.step(np.tile(ACTIONS, (3, 1)))

    def test_bad_simplex_row_raises(self):
        rows = np.tile(ACTIONS, (2, 1))
        rows[1, 0] = 0.9  # row no longer sums to 1
        with pytest.raises(ValueError):
            allocation_from_simplex(rows, 10)
