"""Additional environment-model tests: incremental refits, encodings."""

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.utils.rng import RngStream


def queue_dataset(n, rng_seed=0, drain_rate=3.0):
    rng = np.random.default_rng(rng_seed)
    dataset = TransitionDataset(2, 2)
    for _ in range(n):
        w = rng.uniform(0, 100, 2)
        m = rng.uniform(0, 5, 2)
        dataset.add(w, m, np.maximum(w + 2.0 - drain_rate * m, 0.0))
    return dataset


class TestIncrementalRefit:
    def test_refit_on_grown_dataset_improves(self, rng):
        model = EnvironmentModel(2, 2, hidden_sizes=(16, 16), rng=rng)
        small = queue_dataset(60)
        model.fit(small, epochs=15)
        grown = queue_dataset(600, rng_seed=1)
        error_before = model.evaluate(grown)
        model.fit(grown, epochs=30)
        error_after = model.evaluate(grown)
        assert error_after < error_before

    def test_norm_refreshed_on_refit(self, rng):
        model = EnvironmentModel(2, 2, hidden_sizes=(8,), rng=rng)
        model.fit(queue_dataset(50), epochs=2)
        first_norm = model._norm["x_mean"].copy()
        shifted = TransitionDataset(2, 2)
        data_rng = np.random.default_rng(9)
        for _ in range(50):
            w = data_rng.uniform(500, 600, 2)
            shifted.add(w, data_rng.uniform(0, 5, 2), w)
        model.fit(shifted, epochs=2)
        assert not np.allclose(model._norm["x_mean"], first_norm)


class TestEncodingVariants:
    def test_encoding_learns(self, rng):
        """log1p inputs, delta targets: the one encoding the model has."""
        model = EnvironmentModel(
            2, 2, hidden_sizes=(24, 24), rng=rng.fork("TrueTrue")
        )
        dataset = queue_dataset(400)
        history = model.fit(dataset, epochs=40)
        assert history[-1] < history[0]
        prediction = model.predict(np.array([50.0, 50.0]), np.array([2.0, 2.0]))
        assert prediction.shape == (2,)
        assert np.all(prediction >= 0)

    def test_untrained_model_still_predicts(self, rng):
        """Identity normalisation path before the first fit."""
        model = EnvironmentModel(2, 2, hidden_sizes=(4,), rng=rng)
        prediction = model.predict(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert prediction.shape == (2,)
        assert np.all(np.isfinite(prediction))
