"""Tests for the replay buffer and exploration noise."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reward import reward_eq1
from repro.rl import noise as noise_module
from repro.rl.noise import (
    AdaptiveParameterNoise,
    GaussianActionNoise,
    project_to_simplex,
)
from repro.rl.replay import ReplayBuffer
from repro.utils.rng import RngStream

from tests.sanitizer import sanitized


class TestReplayBuffer:
    def _filled(self, count, capacity=10):
        buffer = ReplayBuffer(capacity, state_dim=2, action_dim=2)
        for i in range(count):
            buffer.add_batch(
                [[i, i]], [[0.5, 0.5]], [float(i)], [[i, i]]
            )
        return buffer

    def test_add_and_len(self):
        assert len(self._filled(3)) == 3

    def test_fifo_eviction(self):
        buffer = self._filled(15, capacity=10)
        assert len(buffer) == 10
        assert buffer.total_added == 15
        # Oldest five evicted: all stored rewards are >= 5.
        assert buffer._rewards[:, 0].min() >= 5

    def test_sample_shapes(self, rng):
        buffer = self._filled(8)
        batch = buffer.sample(4, rng)
        assert batch["states"].shape == (4, 2)
        assert batch["actions"].shape == (4, 2)
        assert batch["rewards"].shape == (4, 1)
        assert batch["next_states"].shape == (4, 2)

    def test_sample_with_replacement_when_undersized(self, rng):
        buffer = self._filled(2)
        batch = buffer.sample(10, rng)
        assert batch["states"].shape == (10, 2)

    def test_sample_empty_raises(self, rng):
        buffer = ReplayBuffer(4, 2, 2)
        with pytest.raises(RuntimeError):
            buffer.sample(1, rng)

    def test_shape_validation(self):
        buffer = ReplayBuffer(4, 2, 2)
        with pytest.raises(ValueError):
            buffer.add_batch(np.zeros((1, 3)), np.zeros((1, 2)), [0.0], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            buffer.add_batch(np.zeros((1, 2)), np.zeros((1, 1)), [0.0], np.zeros((1, 2)))


class TestReplayCheckpoint:
    """state_dict/load_state_dict must be bit-exact — including a buffer
    saved mid-wraparound, where the cursor sits inside live data."""

    def _filled(self, count, capacity=10):
        buffer = ReplayBuffer(capacity, state_dim=2, action_dim=2)
        for i in range(count):
            buffer.add_batch(
                [[i, i]], [[0.5, 0.5]], [float(i)], [[i, i]]
            )
        return buffer

    def _restored(self, buffer):
        clone = ReplayBuffer(buffer.capacity, 2, 2)
        clone.load_state_dict(buffer.state_dict())
        return clone

    def _assert_identical(self, a, b, rng_seed=0):
        assert len(a) == len(b)
        assert a.total_added == b.total_added
        assert a._cursor == b._cursor
        for attr in ("_states", "_actions", "_rewards", "_next_states"):
            assert np.array_equal(
                getattr(a, attr)[: len(a)], getattr(b, attr)[: len(b)]
            ), attr

    def test_partial_buffer_round_trip(self, rng):
        buffer = self._filled(4)
        restored = self._restored(buffer)
        self._assert_identical(buffer, restored)

    def test_wraparound_round_trip_is_bit_exact(self):
        # 23 adds into capacity 10: cursor is mid-ring at 3, and future
        # eviction order depends on it.  The snapshot must preserve both.
        buffer = self._filled(23, capacity=10)
        assert buffer._cursor == 3  # genuinely mid-wraparound
        restored = self._restored(buffer)
        self._assert_identical(buffer, restored)

        # Continued writes land identically: the restored ring keeps the
        # original's eviction order, not a rewound one.
        for b in (buffer, restored):
            b.add_batch([[99.0, 99.0]], np.zeros((1, 2)), [99.0], np.zeros((1, 2)))
        self._assert_identical(buffer, restored)

    def test_restored_buffer_samples_identically(self):
        from repro.utils.rng import RngStream

        buffer = self._filled(17, capacity=10)
        restored = self._restored(buffer)
        a = buffer.sample(8, RngStream("s", np.random.SeedSequence(5)))
        b = restored.sample(8, RngStream("s", np.random.SeedSequence(5)))
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_empty_buffer_round_trip(self):
        buffer = ReplayBuffer(4, 2, 2)
        restored = self._restored(buffer)
        assert len(restored) == 0
        assert restored.total_added == 0

    def test_oversized_snapshot_rejected(self):
        state = self._filled(8, capacity=10).state_dict()
        small = ReplayBuffer(4, 2, 2)
        with pytest.raises(ValueError, match="capacity"):
            small.load_state_dict(state)

    def test_inconsistent_cursor_rejected(self):
        state = self._filled(4, capacity=10).state_dict()
        state["cursor"] = np.int64(7)  # size 4 < capacity demands cursor 4
        buffer = ReplayBuffer(10, 2, 2)
        with pytest.raises(ValueError, match="cursor"):
            buffer.load_state_dict(state)

    def test_truncated_rows_rejected(self):
        state = self._filled(4, capacity=10).state_dict()
        state["states"] = state["states"][:2]
        buffer = ReplayBuffer(10, 2, 2)
        with pytest.raises(ValueError, match="states shape"):
            buffer.load_state_dict(state)


class TestProjectToSimplex:
    def test_already_on_simplex_unchanged(self):
        v = np.array([[0.2, 0.3, 0.5]])
        assert np.allclose(project_to_simplex(v), v)

    def test_output_is_valid_distribution(self, rng):
        for _ in range(100):
            v = rng.normal(size=(1, 5))
            p = project_to_simplex(v)
            assert p.sum() == pytest.approx(1.0)
            assert np.all(p >= 0)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_projection_properties(self, raw):
        v = np.array([raw])
        p = project_to_simplex(v)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= -1e-12)

    def test_preserves_order(self):
        v = np.array([3.0, 1.0, 2.0])
        p = project_to_simplex(v[np.newaxis])[0]
        assert p[0] >= p[2] >= p[1]

    def test_rejects_non_block_shapes(self):
        for shape in ((2,), (2, 2, 2)):
            with pytest.raises(ValueError, match="block"):
                project_to_simplex(np.zeros(shape))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_to_simplex(np.array([[0.2, 0.8], [np.nan, 0.5]]))


class TestActionNoise:
    def test_gaussian_scale(self, rng):
        noise = GaussianActionNoise(sigma=0.5)
        samples = noise.sample(5000, 4, rng)
        assert abs(samples.std() - 0.5) < 0.05


class TestGuardedDtypeStability:
    """The reward's dtype contract holds with the sanitizer active."""

    @staticmethod
    def _stream(seed):
        return RngStream("pairs", np.random.SeedSequence(seed))

    def test_reward_dtype_is_stable_across_calls(self):
        with sanitized():
            for wip in (
                np.arange(9).reshape(3, 3),  # integer WIP counts
                self._stream(30).uniform(0.0, 0.2, size=(3, 3)),
            ):
                assert reward_eq1(wip).dtype == np.float64


class TestAdaptiveParameterNoise:
    def test_sigma_grows_when_too_close(self):
        noise = AdaptiveParameterNoise(initial_sigma=0.1)
        noise.adapt(action_distance=0.01)
        assert noise.sigma == 0.1 * noise_module.PARAM_NOISE_ADAPT

    def test_sigma_shrinks_when_too_far(self):
        noise = AdaptiveParameterNoise(initial_sigma=0.1)
        noise.adapt(action_distance=1.0)
        assert noise.sigma == 0.1 / noise_module.PARAM_NOISE_ADAPT

    def test_sigma_clamped(self):
        noise = AdaptiveParameterNoise(initial_sigma=0.1)
        for _ in range(500):
            noise.adapt(0.0)
        assert noise.sigma == noise_module.PARAM_NOISE_MAX_SIGMA
        for _ in range(500):
            noise.adapt(10.0)
        assert noise.sigma == noise_module.PARAM_NOISE_MIN_SIGMA

    def test_perturb_changes_params(self, rng):
        noise = AdaptiveParameterNoise(initial_sigma=0.5)
        flat = np.zeros(100)
        noisy = noise.perturb(flat, rng)
        assert noisy.shape == flat.shape
        assert np.std(noisy) > 0.1

    def test_action_distance(self):
        clean = np.array([[1.0, 0.0], [0.0, 1.0]])
        perturbed = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert AdaptiveParameterNoise.action_distance(
            clean, perturbed
        ) == pytest.approx(1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AdaptiveParameterNoise(initial_sigma=0.0)
        noise = AdaptiveParameterNoise()
        with pytest.raises(ValueError):
            noise.adapt(-1.0)
