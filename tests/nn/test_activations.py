"""Tests for activation functions (forward values and exact gradients).

The output activations are objects; the hidden ReLU is computed by a
``"relu"`` :class:`Dense` layer itself, so its cases drive one.
"""

import numpy as np
import pytest

from repro.nn.activations import Linear, Softmax, get_activation
from repro.nn.layers import Dense
from repro.utils.rng import RngStream


def numeric_jvp(activation, z, grad_y, eps=1e-6):
    """Numerical gradient of sum(grad_y * f(z)) w.r.t. z."""
    out = np.zeros_like(z)
    it = np.nditer(z, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        zp = z.copy()
        zp[idx] += eps
        zm = z.copy()
        zm[idx] -= eps
        fp = float(np.sum(grad_y * activation.forward(zp)))
        fm = float(np.sum(grad_y * activation.forward(zm)))
        out[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return out


ALL_ACTIVATIONS = [Softmax(), Linear()]


def identity_relu_layer():
    """A hidden layer whose pre-activation is its input."""
    layer = Dense(3, 3, rng=RngStream("relu", np.random.SeedSequence(0)))
    layer.weights[...] = np.eye(3)
    layer.bias[...] = 0.0
    return layer


class TestForwardValues:
    def test_relu_clamps_negative(self):
        z = np.array([[-1.0, 0.0, 2.0]])
        out = identity_relu_layer().forward(z)
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_softmax_rows_sum_to_one(self):
        z = np.array([[1.0, 2.0, 3.0], [100.0, 100.0, 100.0]])
        out = Softmax().forward(z)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.allclose(out[1], [1 / 3, 1 / 3, 1 / 3])

    def test_softmax_is_shift_invariant_and_stable(self):
        z = np.array([[1000.0, 1001.0, 1002.0]])
        out = Softmax().forward(z)
        assert np.all(np.isfinite(out))
        small = Softmax().forward(z - 1000.0)
        assert np.allclose(out, small)

    def test_linear_is_identity(self):
        z = np.array([[1.0, -2.0]])
        assert np.array_equal(Linear().forward(z), z)


class TestBackwardGradients:
    @pytest.mark.parametrize(
        "activation", ALL_ACTIVATIONS, ids=lambda a: a.name
    )
    def test_backward_matches_numerical(self, activation, rng):
        z = rng.normal(size=(3, 4))
        grad_y = rng.normal(size=(3, 4))
        y = activation.forward(z)
        analytic = activation.backward(grad_y, z, y)
        numeric = numeric_jvp(activation, z, grad_y)
        assert np.allclose(analytic, numeric, atol=1e-5)


class TestRegistry:
    @pytest.mark.parametrize("name", ["softmax", "linear"])
    def test_lookup_by_name(self, name):
        assert get_activation(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_activation("gelu")
        with pytest.raises(ValueError, match="unknown activation"):
            get_activation("relu")  # a hidden layer, not an object
