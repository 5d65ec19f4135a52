"""Tests for the transition dataset D."""

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset


def filled(n=20, state_dim=3, action_dim=2, seed=0):
    rng = np.random.default_rng(seed)
    dataset = TransitionDataset(state_dim, action_dim)
    for _ in range(n):
        dataset.add(
            rng.uniform(0, 100, state_dim),
            rng.uniform(0, 5, action_dim),
            rng.uniform(0, 100, state_dim),
        )
    return dataset


class TestAdd:
    def test_length_grows(self):
        assert len(filled(7)) == 7

    def test_shape_validation(self):
        dataset = TransitionDataset(3, 2)
        with pytest.raises(ValueError, match="state shape"):
            dataset.add(np.zeros(2), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="action shape"):
            dataset.add(np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="next_state shape"):
            dataset.add(np.zeros(3), np.zeros(2), np.zeros(4))

    def test_extend(self):
        a, b = filled(5), filled(3, seed=1)
        a.extend(b)
        assert len(a) == 8

    def test_extend_dimension_mismatch(self):
        with pytest.raises(ValueError):
            filled(2).extend(TransitionDataset(4, 2))


class TestViews:
    def test_arrays_shapes(self):
        states, actions, next_states = filled(10).arrays()
        assert states.shape == (10, 3)
        assert actions.shape == (10, 2)
        assert next_states.shape == (10, 3)

    def test_empty_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            TransitionDataset(3, 2).arrays()


class TestStatistics:
    def test_wip_percentiles_ordered(self):
        dataset = filled(100)
        tau, omega = dataset.wip_percentiles(20.0)
        assert np.all(tau <= omega)
        assert tau.shape == (3,)

    def test_percentile_bounds(self):
        dataset = filled(10)
        with pytest.raises(ValueError):
            dataset.wip_percentiles(0.0)
        with pytest.raises(ValueError):
            dataset.wip_percentiles(50.0)


class TestSplitAndBatches:
    def test_split_partitions(self, rng):
        dataset = filled(20)
        train, test = dataset.split(0.25, rng)
        assert len(train) + len(test) == 20
        assert len(test) == 5

    def test_split_too_small(self, rng):
        with pytest.raises(RuntimeError):
            filled(1).split(0.5, rng)

    def test_sample_states(self, rng):
        states = filled(10).sample_states(5, rng)
        assert states.shape == (5, 3)

    def test_sample_states_oversample_allowed(self, rng):
        states = filled(3).sample_states(10, rng)
        assert states.shape == (10, 3)
