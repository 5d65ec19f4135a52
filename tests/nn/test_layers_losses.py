"""Tests for the Dense layer and loss functions."""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError
from repro.utils.rng import RngStream


@pytest.fixture
def layer_rng():
    return RngStream("layer", np.random.SeedSequence(7))


class TestDenseForward:
    def test_output_shape(self, layer_rng):
        layer = Dense(3, 5, rng=layer_rng)
        out = layer.forward(np.zeros((8, 3)))
        assert out.shape == (8, 5)

    def test_rejects_1d_input(self, layer_rng):
        layer = Dense(3, 5, rng=layer_rng)
        with pytest.raises(ValueError, match="2-D"):
            layer.forward(np.zeros(3))

    def test_aux_input_concatenated(self, layer_rng):
        layer = Dense(3, 4, aux_dim=2, activation="linear", rng=layer_rng)
        x = np.ones((2, 3))
        aux = np.ones((2, 2))
        out = layer.forward(x, aux)
        expected = np.concatenate([x, aux], axis=1) @ layer.weights + layer.bias
        assert np.allclose(out, expected)

    def test_missing_aux_raises(self, layer_rng):
        layer = Dense(3, 4, aux_dim=2, rng=layer_rng)
        with pytest.raises(ValueError, match="auxiliary"):
            layer.forward(np.zeros((2, 3)))

    def test_unexpected_aux_raises(self, layer_rng):
        layer = Dense(3, 4, rng=layer_rng)
        with pytest.raises(ValueError, match="does not accept"):
            layer.forward(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_invalid_dims_raise(self, layer_rng):
        with pytest.raises(ValueError):
            Dense(0, 4, rng=layer_rng)
        with pytest.raises(ValueError):
            Dense(3, 4, aux_dim=-1, rng=layer_rng)
        with pytest.raises(ValueError):
            Dense(3, 4, init="unknown", rng=layer_rng)


class TestDenseBackward:
    def test_backward_before_forward_raises(self, layer_rng):
        layer = Dense(3, 4, rng=layer_rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((2, 4)))

    def test_weight_gradient_matches_numerical(self, layer_rng):
        layer = Dense(3, 2, activation="softmax", rng=layer_rng)
        x = layer_rng.normal(size=(4, 3))
        grad_y = layer_rng.normal(size=(4, 2))

        layer.forward(x)
        layer.backward(grad_y)
        analytic = layer.grad_weights.copy()

        eps = 1e-6
        for i in range(3):
            for j in range(2):
                layer.weights[i, j] += eps
                up = float(np.sum(grad_y * layer.forward(x)))
                layer.weights[i, j] -= 2 * eps
                down = float(np.sum(grad_y * layer.forward(x)))
                layer.weights[i, j] += eps
                assert analytic[i, j] == pytest.approx(
                    (up - down) / (2 * eps), abs=1e-5
                )

    def test_aux_gradient_split(self, layer_rng):
        layer = Dense(3, 2, aux_dim=2, activation="linear", rng=layer_rng)
        x = layer_rng.normal(size=(4, 3))
        aux = layer_rng.normal(size=(4, 2))
        layer.forward(x, aux)
        grad_x, grad_aux = layer.backward(np.ones((4, 2)))
        assert grad_x.shape == (4, 3)
        assert grad_aux.shape == (4, 2)


class TestFlatParams:
    def test_roundtrip(self, layer_rng):
        layer = Dense(3, 4, rng=layer_rng)
        flat = layer.get_flat()
        assert flat.shape == (layer.num_params,)
        layer.set_flat(flat * 2.0)
        assert np.allclose(layer.get_flat(), flat * 2.0)

    def test_wrong_size_rejected(self, layer_rng):
        layer = Dense(3, 4, rng=layer_rng)
        with pytest.raises(ValueError):
            layer.set_flat(np.zeros(layer.num_params + 1))

    def test_state_dict_roundtrip(self, layer_rng):
        layer = Dense(3, 4, rng=layer_rng)
        state = layer.state_dict()
        layer.weights[:] = 0.0
        layer.load_state_dict(state)
        assert np.allclose(layer.weights, state["weights"])


class TestLosses:
    def test_mse_value_and_gradient(self):
        loss = MeanSquaredError()
        pred = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        value, grad = loss(pred, target)
        assert value == pytest.approx((1 + 4) / 2)
        assert np.allclose(grad, 2 * pred / 2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MeanSquaredError()(np.zeros((2, 2)), np.zeros((2, 3)))
