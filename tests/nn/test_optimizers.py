"""Tests for the Adam optimiser, its clipping and its shape checks."""

import math

import numpy as np
import pytest

from repro.nn.optimizers import Adam


def quadratic_descent(optimizer, start, steps=200):
    """Minimise f(x) = ||x||^2 / 2 from ``start``; returns final point."""
    x = np.array(start, dtype=np.float64)
    for _ in range(steps):
        optimizer.step([(x, x.copy())])  # grad of ||x||^2/2 is x
    return x


class TestAdam:
    def test_converges_on_quadratic(self):
        x = quadratic_descent(Adam(learning_rate=0.1), [5.0, -3.0], steps=500)
        assert np.linalg.norm(x) < 1e-2

    def test_first_step_is_learning_rate_sized(self):
        opt = Adam(learning_rate=0.01)
        x = np.array([1.0])
        opt.step([(x, np.array([100.0]))])
        # Bias-corrected Adam's first step is ~lr regardless of grad scale.
        assert x[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_weight_decay_shrinks_params_without_gradient(self):
        opt = Adam(learning_rate=0.1, weight_decay=0.5)
        x = np.array([1.0])
        opt.step([(x, np.array([0.0]))])
        assert x[0] < 1.0

    def test_state_reset(self):
        opt = Adam()
        x = np.array([1.0])
        opt.step([(x, np.array([1.0]))])
        assert opt.iterations == 1
        opt.reset()
        assert opt.iterations == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"learning_rate": 0.0}, {"learning_rate": -1e-3}, {"grad_clip": -1.0},
         {"weight_decay": -1}],
    )
    def test_rejects_bad_hyperparams(self, kwargs):
        with pytest.raises(ValueError):
            Adam(**kwargs)

    @pytest.mark.parametrize(
        "name", ["learning_rate", "grad_clip", "weight_decay"]
    )
    def test_rejects_nan_hyperparams(self, name):
        # One step with any of these NaN turns every parameter into NaN.
        with pytest.raises(ValueError, match=name):
            Adam(**{name: float("nan")})


class PlainStep(Adam):
    """``param -= lr * grad``: makes Adam's clip factor visible."""

    def _update(self, index, param, grad, work, spare):
        param -= self.learning_rate * grad


class TestGradClip:
    def test_global_norm_clipping(self):
        opt = PlainStep(learning_rate=1.0, grad_clip=1.0)
        x = np.array([0.0, 0.0])
        opt.step([(x, np.array([30.0, 40.0]))])  # norm 50 -> scaled to 1
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_norm_adds_the_squares_left_to_right(self):
        """1e16 + 1 + 1 is 1e16 added left to right but 1e16 + 2 exactly
        (builtin ``sum`` on Python 3.12, ``math.fsum``): the clip factor
        must be the left-to-right one on every interpreter."""
        grads = np.array([1e8, 1.0, 1.0])
        scale = 1.0 / np.sqrt(1e16)
        assert 1.0 / np.sqrt(math.fsum(grads**2)) < scale
        opt = PlainStep(learning_rate=1.0, grad_clip=1.0)
        params = [np.zeros(1) for _ in grads]
        opt.step([(x, grads[i : i + 1]) for i, x in enumerate(params)])
        assert np.concatenate(params).tobytes() == (-(grads * scale)).tobytes()

    def test_no_clip_below_threshold(self):
        opt = PlainStep(learning_rate=1.0, grad_clip=100.0)
        x = np.array([0.0])
        opt.step([(x, np.array([3.0]))])
        assert x[0] == pytest.approx(-3.0)


class TestShapeChecks:
    def test_param_grad_shape_mismatch(self):
        opt = Adam()
        with pytest.raises(ValueError, match="mismatch"):
            opt.step([(np.zeros(3), np.zeros(4))])
