"""Tests for the Lend-Giveback model refinement (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.refinement import PERCENTILE, TAU_FLOOR, RefinedModel
from repro.utils.rng import RngStream


def make_model_and_data(rng, n=200):
    dataset = TransitionDataset(2, 2)
    data_rng = np.random.default_rng(5)
    for _ in range(n):
        w = data_rng.uniform(0, 50, 2)
        m = data_rng.uniform(0, 5, 2)
        w_next = np.maximum(w + 2.0 - 2.0 * m, 0.0)
        dataset.add(w, m, w_next)
    model = EnvironmentModel(2, 2, hidden_sizes=(16, 16), rng=rng.fork("m"))
    model.fit(dataset, epochs=30)
    return model, dataset


class TestConstruction:
    def test_from_dataset_thresholds(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        assert PERCENTILE == 20.0  # Algorithm 1's p
        tau_raw, omega_raw = dataset.wip_percentiles(PERCENTILE)
        assert np.all(refined.tau >= tau_raw)  # floored
        assert np.all(refined.omega >= refined.tau)

    def test_tau_floor_applies_on_zero_heavy_data(self, rng):
        dataset = TransitionDataset(1, 1)
        for _ in range(50):
            dataset.add(np.zeros(1), np.ones(1), np.zeros(1))
        model = EnvironmentModel(1, 1, hidden_sizes=(4,), rng=rng.fork("z"))
        model.fit(dataset, epochs=2)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        # Percentiles of an all-zero column are 0; the floor keeps the
        # boundary region non-empty so the refinement still fires at w=0.
        assert refined.tau[0] == TAU_FLOOR
        assert refined.omega[0] >= 2.0
        refined.predict(np.zeros(1), np.ones(1))
        assert refined.lend_count == 1

    def test_shape_validation(self, rng):
        model, dataset = make_model_and_data(rng)
        with pytest.raises(ValueError):
            RefinedModel(model, np.zeros(3), np.ones(3), rng=rng)
        with pytest.raises(ValueError, match="omega"):
            RefinedModel(model, np.ones(2), np.zeros(2), rng=rng)


class TestPrediction:
    def test_above_threshold_matches_raw_model(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        state = refined.omega + 10.0  # far above every threshold
        action = np.array([1.0, 1.0])
        raw = np.maximum(model.predict(state, action), 0.0)
        assert np.allclose(refined.predict(state, action), raw)
        assert refined.lend_count == 0

    def test_below_threshold_triggers_lend(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        state = np.zeros(2)
        refined.predict(state, np.array([1.0, 1.0]))
        assert refined.lend_count == 2  # both dimensions below tau

    def test_only_low_dimensions_adjusted(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        state = np.array([0.0, float(refined.omega[1] + 5)])
        action = np.array([1.0, 1.0])
        raw = np.maximum(model.predict(state, action), 0.0)
        out = refined.predict(state, action)
        assert out[1] == pytest.approx(raw[1])  # high dim passes through

    def test_output_non_negative(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        for _ in range(20):
            state = np.abs(rng.normal(0, 5, size=2))
            out = refined.predict(state, np.array([5.0, 5.0]))
            assert np.all(out >= 0)

    def test_mismatched_batch_rejected(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        with pytest.raises(ValueError, match="batch sizes differ"):
            refined.predict(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_below_threshold_mask(self, rng):
        model, dataset = make_model_and_data(rng)
        refined = RefinedModel.from_dataset(model, dataset, rng=rng)
        mask = refined.below_threshold(np.array([0.0, 1e9]))
        assert mask.tolist() == [True, False]
