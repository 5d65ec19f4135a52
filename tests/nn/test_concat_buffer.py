"""The Dense layer's preallocated [x | aux] concat buffer must be an
invisible optimisation: bitwise-identical outputs and gradients to the
``np.concatenate`` path, and reuse while the batch size is stable.
"""

import numpy as np
import pytest

from repro.nn.layers import Dense
from repro.utils.rng import RngStream


@pytest.fixture
def layer_rng():
    return RngStream("layer", np.random.SeedSequence(7))


class TestConcatBuffer:
    def test_forward_bitwise_equals_concatenate(self, layer_rng):
        layer = Dense(3, 4, aux_dim=2, activation="relu", rng=layer_rng)
        x = layer_rng.normal(size=(5, 3))
        aux = layer_rng.normal(size=(5, 2))
        out = layer.forward(x, aux)
        expected = np.maximum(
            np.concatenate([x, aux], axis=1) @ layer.weights + layer.bias, 0.0
        )
        assert out.tobytes() == expected.tobytes()

    def test_buffer_reused_for_stable_batch_size(self, layer_rng):
        layer = Dense(3, 4, aux_dim=2, activation="linear", rng=layer_rng)
        layer.forward(np.zeros((6, 3)), np.zeros((6, 2)))
        first_buf = layer._concat_buf
        assert first_buf is not None
        layer.forward(np.ones((6, 3)), np.ones((6, 2)))
        assert layer._concat_buf is first_buf

    def test_buffer_reallocated_on_batch_change(self, layer_rng):
        layer = Dense(3, 4, aux_dim=2, activation="linear", rng=layer_rng)
        x6 = layer_rng.normal(size=(6, 3))
        a6 = layer_rng.normal(size=(6, 2))
        x2 = layer_rng.normal(size=(2, 3))
        a2 = layer_rng.normal(size=(2, 2))
        layer.forward(x6, a6)
        out = layer.forward(x2, a2)
        assert layer._concat_buf.shape == (2, 5)
        expected = np.concatenate([x2, a2], axis=1) @ layer.weights + layer.bias
        assert out.tobytes() == expected.tobytes()

    def test_gradients_bitwise_equal_concatenate_path(self, layer_rng):
        layer = Dense(3, 2, aux_dim=2, activation="relu", rng=layer_rng)
        x = layer_rng.normal(size=(4, 3))
        aux = layer_rng.normal(size=(4, 2))
        grad_y = layer_rng.normal(size=(4, 2))

        out = layer.forward(x, aux)
        grad_x, grad_aux = layer.backward(grad_y)

        # Reference: the pre-buffer computation spelled out with an
        # explicit np.concatenate and a separate ReLU (exactly the old
        # code path).
        xc = np.concatenate([x, aux], axis=1)
        z = xc @ layer.weights + layer.bias
        y = np.maximum(z, 0.0)
        grad_z = grad_y * (z > 0.0)
        grad_full = grad_z @ layer.weights.T

        assert out.tobytes() == y.tobytes()
        assert grad_x.tobytes() == grad_full[:, :3].tobytes()
        assert grad_aux.tobytes() == grad_full[:, 3:].tobytes()
        assert layer.grad_weights.tobytes() == (xc.T @ grad_z).tobytes()
        assert layer.grad_bias.tobytes() == grad_z.sum(axis=0).tobytes()
