"""Tests for weight initialisers."""

import numpy as np
import pytest

from repro.nn import initializers
from repro.nn.initializers import (
    constant_init,
    glorot_uniform,
    he_uniform,
    SMALL_UNIFORM_LIMIT,
    uniform_init,
)
from repro.utils.rng import RngStream


@pytest.fixture
def init_rng():
    return RngStream("init", np.random.SeedSequence(9))


class TestGlorot:
    def test_shape_and_bounds(self, init_rng):
        weights = glorot_uniform(100, 50, init_rng)
        assert weights.shape == (100, 50)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(weights) <= limit)

    def test_variance_scales_with_fan(self, init_rng):
        small_fan = glorot_uniform(10, 10, init_rng.fork("a"))
        large_fan = glorot_uniform(1000, 1000, init_rng.fork("b"))
        assert small_fan.std() > large_fan.std()


class TestHe:
    def test_bounds_depend_on_fan_in_only(self, init_rng):
        weights = he_uniform(64, 8, init_rng)
        limit = np.sqrt(6.0 / 64)
        assert np.all(np.abs(weights) <= limit)
        assert weights.std() > 0


class TestSmallUniform:
    def test_custom_limit(self, init_rng):
        # The limit is DDPG's fixed final-layer range, not He's fan-in one.
        weights = uniform_init(20, 20, init_rng)
        assert np.all(np.abs(weights) <= SMALL_UNIFORM_LIMIT)
        assert np.abs(weights).max() > 0.9 * SMALL_UNIFORM_LIMIT


class TestConstant:
    def test_fill_value(self, monkeypatch):
        monkeypatch.setattr(initializers, "FILL_VALUE", 0.5)
        weights = constant_init(3, 4)
        assert weights.shape == (3, 4)
        assert np.all(weights == 0.5)

    def test_default_zero(self):
        assert np.all(constant_init(2, 2) == 0.0)
