"""Dense (fully connected) layer with backpropagation.

The layer supports everything MIRAS's networks need:

- forward/backward over mini-batches,
- gradients with respect to the *input* (the deterministic policy gradient
  chains dQ/da through the critic's input),
- an optional *auxiliary input* concatenated at this layer (the paper's
  critic "inserts one of Critic's inputs — action — to the second layer"),
- flattened parameter views for parameter-space exploration noise.

Inside an :class:`repro.nn.MLP` the four parameter/gradient arrays are
*views* into the network's flat arena (:meth:`Dense.bind`): write them
with ``layer.weights[...] = value``, never rebind the attribute.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import (
    constant_init,
    glorot_uniform,
    he_uniform,
    uniform_init,
)
from repro.utils.rng import RngStream, fallback_stream

__all__ = ["Dense"]

_INITIALIZERS = {
    "glorot": glorot_uniform,
    "he": he_uniform,
    "small_uniform": uniform_init,
}


class Dense:
    """A fully connected layer ``y = f(x @ W + b)``.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output widths.  If ``aux_dim`` is non-zero, the effective input
        width is ``in_dim + aux_dim`` and callers must pass the auxiliary
        tensor to :meth:`forward`.
    activation:
        Name of the activation (see :func:`repro.nn.get_activation`) or an
        :class:`Activation` instance.
    init:
        One of ``glorot``, ``he``, ``small_uniform``.
    aux_dim:
        Width of an auxiliary input concatenated to this layer's input.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        init: str = "he",
        aux_dim: int = 0,
        rng: Optional[RngStream] = None,
    ):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(
                f"layer dims must be positive, got in={in_dim}, out={out_dim}"
            )
        if aux_dim < 0:
            raise ValueError(f"aux_dim must be >= 0, got {aux_dim}")
        if init not in _INITIALIZERS:
            known = ", ".join(sorted(_INITIALIZERS))
            raise ValueError(f"unknown init {init!r}; known: {known}")
        if rng is None:
            rng = fallback_stream("dense")

        self.in_dim = in_dim
        self.out_dim = out_dim
        self.aux_dim = aux_dim
        self.activation: Activation = (
            activation
            if isinstance(activation, Activation)
            else get_activation(activation)
        )
        fan_in = in_dim + aux_dim
        self.weights = _INITIALIZERS[init](fan_in, out_dim, rng)
        self.bias = constant_init(1, out_dim).reshape(out_dim)

        # Gradients populated by backward().
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

        # Forward cache.
        self._x: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        # Preallocated [x | aux] buffer, reused while the batch size is
        # stable (fixed-shape training batches never reallocate).  Filling
        # it is value-identical to np.concatenate, so outputs are bitwise
        # unchanged.
        self._concat_buf: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Compute the layer output for a batch ``x`` of shape (B, in_dim)."""
        if x.ndim != 2:
            raise ValueError(f"expected 2-D batch input, got shape {x.shape}")
        if self.aux_dim:
            if aux is None:
                raise ValueError("layer expects an auxiliary input")
            if aux.shape != (x.shape[0], self.aux_dim):
                raise ValueError(
                    f"aux shape {aux.shape} != ({x.shape[0]}, {self.aux_dim})"
                )
            if x.dtype == np.float64 and aux.dtype == np.float64:
                buf = self._concat_buf
                if buf is None or buf.shape[0] != x.shape[0]:
                    buf = np.empty(
                        (x.shape[0], self.in_dim + self.aux_dim),
                        dtype=np.float64,
                    )
                    self._concat_buf = buf
                buf[:, : self.in_dim] = x
                buf[:, self.in_dim :] = aux
                x = buf
            else:
                x = np.concatenate([x, aux], axis=1)
        elif aux is not None:
            raise ValueError("layer does not accept an auxiliary input")

        self._x = x
        self._z = x @ self.weights + self.bias
        self._y = self.activation.forward(self._z)
        return self._y

    def bind(
        self,
        weights: np.ndarray,
        bias: np.ndarray,
        grad_weights: np.ndarray,
        grad_bias: np.ndarray,
    ) -> None:
        """Adopt caller-owned arrays as this layer's storage.

        :class:`repro.nn.MLP` passes reshaped views of its flat arena,
        already holding this layer's parameter values; from here on every
        in-place write to the attributes lands in the arena.
        """
        self.weights, self.bias = weights, bias
        self.grad_weights, self.grad_bias = grad_weights, grad_bias

    def _grad_z(self, grad_y: np.ndarray) -> np.ndarray:
        if self._x is None or self._z is None or self._y is None:
            raise RuntimeError("backward() called before forward()")
        return self.activation.backward(grad_y, self._z, self._y)

    def _grad_inputs(
        self, grad_z: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        grad_x_full = grad_z @ self.weights.T
        if self.aux_dim:
            return grad_x_full[:, : self.in_dim], grad_x_full[:, self.in_dim :]
        return grad_x_full, None

    def backward(self, grad_y: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Backpropagate ``dL/dy``; returns ``(dL/dx, dL/daux)``.

        Also writes ``grad_weights`` / ``grad_bias`` in place (overwriting
        the previous values — optimizers read them right after).
        """
        grad_z = self._grad_z(grad_y)
        np.matmul(self._x.T, grad_z, out=self.grad_weights)
        np.sum(grad_z, axis=0, out=self.grad_bias)
        return self._grad_inputs(grad_z)

    def input_backward(
        self, grad_y: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """:meth:`backward` without the parameter gradients.

        Returns the same ``(dL/dx, dL/daux)`` and leaves ``grad_weights``
        / ``grad_bias`` untouched — all the deterministic policy gradient
        needs from the critic.
        """
        return self._grad_inputs(self._grad_z(grad_y))

    # Parameter flattening (for parameter-space noise) ------------------
    @property
    def num_params(self) -> int:
        return self.weights.size + self.bias.size

    def get_flat(self) -> np.ndarray:
        """Return a flat copy of (weights, bias)."""
        return np.concatenate([self.weights.ravel(), self.bias.ravel()])

    def set_flat(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector produced by :meth:`get_flat`."""
        if flat.shape != (self.num_params,):
            raise ValueError(
                f"flat vector has shape {flat.shape}, expected ({self.num_params},)"
            )
        w_size = self.weights.size
        self.weights[...] = flat[:w_size].reshape(self.weights.shape)
        self.bias[...] = flat[w_size:]

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters for checkpointing."""
        return {"weights": self.weights.copy(), "bias": self.bias.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if state["weights"].shape != self.weights.shape:
            raise ValueError("weights shape mismatch in state dict")
        if state["bias"].shape != self.bias.shape:
            raise ValueError("bias shape mismatch in state dict")
        self.weights[...] = state["weights"]
        self.bias[...] = state["bias"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aux = f", aux_dim={self.aux_dim}" if self.aux_dim else ""
        return (
            f"Dense({self.in_dim} -> {self.out_dim}, "
            f"activation={self.activation.name}{aux})"
        )
