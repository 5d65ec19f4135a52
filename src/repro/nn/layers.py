"""Dense (fully connected) layer with backpropagation.

The layer supports everything MIRAS's networks need:

- forward/backward over mini-batches,
- gradients with respect to the *input* (the deterministic policy gradient
  chains dQ/da through the critic's input),
- an optional *auxiliary input* concatenated at this layer (the paper's
  critic "inserts one of Critic's inputs — action — to the second layer").

Inside an :class:`repro.nn.MLP` the four parameter/gradient arrays are
*views* into the network's flat arena (:meth:`Dense.bind`): write them
with ``layer.weights[...] = value``, never rebind the attribute.  A
``"relu"`` layer is a hidden layer: it computes in buffers it owns, so
its output is only good until its next forward.  The other activations
allocate, which is why an MLP's last layer is never ReLU.
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
from repro.utils.rng import RngStream

__all__ = ["Dense"]

#: A hidden layer keeps workspaces for this many batch row counts (the
#: actor alternates acting at K rows and training at B); a new row count
#: evicts the oldest.
_WORKSPACE_ROW_COUNTS = 2

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
        ``"relu"`` (a hidden layer), or the name of an output activation
        (see :func:`repro.nn.get_activation`).
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
        *,
        rng: RngStream,
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

        self.in_dim = in_dim
        self.out_dim = out_dim
        self.aux_dim = aux_dim
        #: The output activation; ``None`` for a hidden ReLU layer.
        self.activation: Optional[Activation] = (
            None if activation == "relu" else get_activation(activation)
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
        # Hidden ReLU layers only: a y / grad_z stack per batch row
        # count.  Their output never leaves the MLP; an output layer's is
        # returned, so it keeps allocating (None).
        self._workspaces: Optional[Dict[int, np.ndarray]] = (
            {} if self.activation is None else None
        )
        self._grad_buf: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        # Caches and workspaces are scratch, not state: a copy starts bare.
        caches = dict(_x=None, _z=None, _y=None, _grad_buf=None, _concat_buf=None)
        bare = None if self._workspaces is None else {}
        return dict(self.__dict__, **caches, _workspaces=bare)

    def _workspace(self, rows: int) -> np.ndarray:
        stack = self._workspaces.get(rows)
        if stack is None:
            if len(self._workspaces) >= _WORKSPACE_ROW_COUNTS:
                del self._workspaces[next(iter(self._workspaces))]
            stack = self._workspaces[rows] = np.empty((2, rows, self.out_dim))
        return stack

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
            buf = self._concat_buf
            if buf is None or buf.shape[0] != x.shape[0]:
                buf = np.empty(
                    (x.shape[0], self.in_dim + self.aux_dim), dtype=np.float64
                )
                self._concat_buf = buf
            buf[:, : self.in_dim] = x
            buf[:, self.in_dim :] = aux
            x = buf
        elif aux is not None:
            raise ValueError("layer does not accept an auxiliary input")

        self._x = x
        if self._workspaces is None:
            self._z = x @ self.weights + self.bias
            self._y = self.activation.forward(self._z)
        else:  # ReLU in place in this layer's own buffer; backward reads
            # only y (y > 0 exactly where z > 0, NaN included), so no z.
            y, self._grad_buf = self._workspace(x.shape[0])
            np.matmul(x, self.weights, out=y)
            y += self.bias
            self._z, self._y = None, np.maximum(y, 0.0, out=y)
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
        if self._x is None or self._y is None:
            raise RuntimeError("backward() called before forward()")
        if self._workspaces is None:
            return self.activation.backward(grad_y, self._z, self._y)
        # A float mask multiplies faster than a bool one.
        mask = np.greater(self._y, 0.0, out=self._grad_buf)
        return np.multiply(grad_y, mask, out=mask)

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
        grad_z.sum(axis=0, out=self.grad_bias)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        aux = f", aux_dim={self.aux_dim}" if self.aux_dim else ""
        return (
            f"Dense({self.in_dim} -> {self.out_dim}, "
            f"activation={getattr(self.activation, 'name', 'relu')}{aux})"
        )
