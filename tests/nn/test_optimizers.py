"""Tests for the Adam optimiser and the shared clipping/shape checks."""

import numpy as np
import pytest

from repro.nn.optimizers import Adam, Optimizer


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
        [{"beta1": 1.0}, {"beta2": -0.1}, {"epsilon": 0}, {"weight_decay": -1}],
    )
    def test_rejects_bad_hyperparams(self, kwargs):
        with pytest.raises(ValueError):
            Adam(**kwargs)


class PlainStep(Optimizer):
    """``param -= lr * grad``: makes the base class's clip factor visible."""

    def _update(self, index, param, grad, work, spare):
        param -= self.learning_rate * grad


class TestGradClip:
    def test_global_norm_clipping(self):
        opt = PlainStep(learning_rate=1.0, grad_clip=1.0)
        x = np.array([0.0, 0.0])
        opt.step([(x, np.array([30.0, 40.0]))])  # norm 50 -> scaled to 1
        assert np.linalg.norm(x) == pytest.approx(1.0)

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
