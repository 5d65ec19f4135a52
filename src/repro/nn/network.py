"""Sequential multilayer perceptron.

This is the single network container used by the environment model, the
actor, and the critic.  Beyond forward, backward and ``train_batch`` it
exposes the three capabilities the MIRAS algorithms require:

- **input gradients** (:meth:`MLP.input_gradient`) for the deterministic
  policy gradient, which chains dQ/da through the critic's action input;
- **flat parameter vectors** (:meth:`MLP.get_flat` / :meth:`MLP.set_flat`)
  for parameter-space exploration noise, which perturbs the whole policy
  network with Gaussian noise;
- **auxiliary (second-layer) inputs** so the critic can receive the action
  "at the second layer" exactly as the paper describes.

All parameters of one network live in a single contiguous ``float64``
vector ``[W0|b0|W1|b1|...]`` (the *arena*, :attr:`MLP.params`) with an
equal-sized gradient vector beside it; each layer's ``weights`` / ``bias``
/ ``grad_weights`` / ``grad_bias`` is a reshaped view.  The optimiser and
:func:`soft_update` therefore touch one array per network, in place.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError
from repro.nn.optimizers import Adam
from repro.utils.rng import RngStream

__all__ = ["MLP", "soft_update"]


class MLP:
    """A stack of :class:`Dense` layers.

    Parameters
    ----------
    layer_sizes:
        ``[in_dim, hidden..., out_dim]``; at least one layer (two entries).
    output_activation:
        Activation name of the final layer; every hidden layer is ReLU.
    aux_dim / aux_layer:
        If ``aux_dim`` > 0, layer index ``aux_layer`` (0-based) receives an
        extra input of that width concatenated to its normal input.  The
        paper's critic uses ``aux_layer=1`` to inject the action at the
        second layer.
    rng:
        Seeded stream for weight initialisation.
    final_init:
        Initialiser for the last layer; DDPG uses ``small_uniform``.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        output_activation: str = "linear",
        aux_dim: int = 0,
        aux_layer: int = 1,
        *,
        rng: RngStream,
        final_init: str = "glorot",
    ):
        if len(layer_sizes) < 2:
            raise ValueError(
                f"layer_sizes needs >= 2 entries, got {list(layer_sizes)}"
            )
        if aux_dim and not 0 <= aux_layer < len(layer_sizes) - 1:
            raise ValueError(
                f"aux_layer {aux_layer} out of range for "
                f"{len(layer_sizes) - 1} layers"
            )

        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        self.aux_dim = aux_dim
        self.aux_layer = aux_layer if aux_dim else -1
        self.layers: List[Dense] = []
        last = len(layer_sizes) - 2
        for i, (n_in, n_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            is_last = i == last
            activation = output_activation if is_last else "relu"
            init = final_init if is_last else "he"
            layer_aux = aux_dim if i == self.aux_layer else 0
            layer = Dense(
                n_in,
                n_out,
                activation=activation,
                init=init,
                aux_dim=layer_aux,
                rng=rng.fork(f"layer{i}"),
            )
            self.layers.append(layer)
        self._bind_arena()

    def _bind_arena(self) -> None:
        """Allocate this network's own arena and point its layers into it."""
        bounds = [0]
        for layer in self.layers:
            bounds.append(bounds[-1] + layer.weights.size)
            bounds.append(bounds[-1] + layer.bias.size)
        #: Flat parameter vector; layer arrays are views into it.
        self.params = np.empty(bounds[-1], dtype=np.float64)
        #: Flat gradient vector, same layout, written by :meth:`backward`
        #: (zero until then, also in a copy of a trained network).
        self.grads = np.zeros(bounds[-1], dtype=np.float64)
        #: Offsets of each weight/bias array in the arena.  Global-norm
        #: clipping sums squares per segment so its rounding matches a
        #: list of separate per-layer arrays.
        self.segment_bounds = tuple(bounds)
        #: ``tau * source`` scratch of :func:`soft_update` into this target.
        self._polyak: Optional[np.ndarray] = None
        for i, layer in enumerate(self.layers):
            w, b, end = bounds[2 * i : 2 * i + 3]
            shape = layer.weights.shape
            self.params[w:b] = layer.weights.ravel()
            self.params[b:end] = layer.bias
            layer.bind(
                self.params[w:b].reshape(shape),
                self.params[b:end],
                self.grads[w:b].reshape(shape),
                self.grads[b:end],
            )

    def __getstate__(self) -> dict:
        # Layer arrays travel by value (caches and workspaces stay behind,
        # see Dense.__getstate__); the arena is rebuilt on arrival.
        state = self.__dict__.copy()
        del state["params"], state["grads"], state["_polyak"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Copying or unpickling turns each layer's views into independent
        # arrays; re-binding gives the copy its own arena so it neither
        # aliases the source nor loses the flat layout.
        self.__dict__.update(state)
        self._bind_arena()

    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, aux: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run a batch through the network, caching for backward()."""
        h = _as_batch(x)
        if aux is not None:
            aux = _as_batch(aux)
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, aux if i == self.aux_layer else None)
        return h

    @property
    def output(self) -> Optional[np.ndarray]:
        """What the most recent :meth:`forward` returned (None before one)."""
        return self.layers[-1]._y

    def _backpropagate(
        self, grad_out: np.ndarray, accumulate: bool, first_layer: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Walk layers last -> ``first_layer``; returns ``(dL/dx, dL/daux)``
        where ``x`` is the input of ``first_layer``."""
        grad = grad_out
        grad_aux: Optional[np.ndarray] = None
        for i in range(len(self.layers) - 1, first_layer - 1, -1):
            layer = self.layers[i]
            step = layer.backward if accumulate else layer.input_backward
            grad, layer_grad_aux = step(grad)
            if layer_grad_aux is not None:
                grad_aux = layer_grad_aux
        return grad, grad_aux

    def backward(
        self, grad_out: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Backpropagate ``dL/d(output)``; returns ``(dL/dx, dL/daux)``.

        Weight gradients are left in :attr:`grads` (each layer's
        ``grad_weights`` / ``grad_bias`` view).
        """
        return self._backpropagate(grad_out, accumulate=True, first_layer=0)

    def input_gradient(
        self,
        x: np.ndarray,
        aux: Optional[np.ndarray] = None,
        wrt: str = "input",
    ) -> np.ndarray:
        """Gradient of the output's row sum w.r.t. inputs.

        For a scalar output per sample this is d(output)/d(input), which is
        what the deterministic policy gradient needs from the critic
        (``wrt='aux'`` selects the action input).

        Only input gradients are computed: no weight gradient is formed,
        :attr:`grads` keeps what the last :meth:`backward` left there, and
        the walk stops at the auxiliary layer when ``wrt='aux'``.  The
        forward output stays readable as :attr:`output`.
        """
        if wrt not in ("input", "aux"):
            raise ValueError(f"wrt must be 'input' or 'aux', got {wrt!r}")
        if wrt == "aux" and not self.aux_dim:
            raise ValueError("network has no auxiliary input")
        grad_x, grad_aux = self._backpropagate(
            np.ones_like(self.forward(x, aux)),
            accumulate=False,
            first_layer=self.aux_layer if wrt == "aux" else 0,
        )
        return grad_aux if wrt == "aux" else grad_x

    # Training ----------------------------------------------------------
    def params_and_grads(self):
        """The arena as one ``(params, grads, segment_bounds)`` entry for
        :meth:`repro.nn.Adam.step`."""
        return [(self.params, self.grads, self.segment_bounds)]

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Adam,
        loss: MeanSquaredError,
    ) -> float:
        """One gradient step on a batch; returns the batch loss."""
        prediction = self.forward(x)
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        value, grad = loss(prediction, y)
        self.backward(grad)
        optimizer.step(self.params_and_grads())
        return value

    # Parameter-vector API (for parameter-space noise) -------------------
    @property
    def num_params(self) -> int:
        return self.params.size

    def get_flat(self) -> np.ndarray:
        """All parameters as one flat copy."""
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Load all parameters from a flat vector."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_params,):
            raise ValueError(
                f"flat vector has shape {flat.shape}, "
                f"expected ({self.num_params},)"
            )
        self.params[...] = flat

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Copy of all parameters keyed by layer index."""
        return {f"layer{i}": l.state_dict() for i, l in enumerate(self.layers)}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        for i, layer in enumerate(self.layers):
            layer.load_state_dict(state[f"layer{i}"])

    def clone(self) -> "MLP":
        """Structural + parameter deep copy (used for target networks).

        The copy owns a fresh arena (see :meth:`__setstate__`); it never
        aliases this network's parameters.
        """
        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arch = " -> ".join(str(s) for s in self.layer_sizes)
        aux = f", aux_dim={self.aux_dim}@layer{self.aux_layer}" if self.aux_dim else ""
        return f"MLP({arch}{aux})"


def soft_update(target: MLP, source: MLP, tau: float) -> None:
    """Polyak-average ``target <- tau * source + (1 - tau) * target``.

    This is DDPG's target-network update; ``tau=1`` copies outright.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    if target.num_params != source.num_params:
        raise ValueError("target and source networks differ in size")
    # In place on the arenas; (1-tau)*t + tau*s rounds exactly like
    # tau*s + (1-tau)*t (two products, one commutative add).  tau*s goes
    # to the target's scratch last, so the add reads it while it is hot.
    if target._polyak is None:
        target._polyak = np.empty_like(target.params)
    target.params *= 1.0 - tau
    target.params += np.multiply(source.params, tau, out=target._polyak)


def _as_batch(a) -> np.ndarray:
    """``a`` as a 2-D float64 ndarray, without wrapper calls if it is one."""
    if type(a) is np.ndarray and a.ndim == 2 and a.dtype == np.float64:
        return a
    return np.atleast_2d(np.asarray(a, dtype=np.float64))
