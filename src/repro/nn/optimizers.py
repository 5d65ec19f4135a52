"""Gradient-descent optimisers.

The optimisers operate on lists of (parameter, gradient) array pairs,
keeping per-entry state (Adam moments) keyed by position.
:class:`repro.nn.network.MLP` supplies its whole flat arena as *one* entry,
``(params, grads, segment_bounds)``, so a step is a dozen in-place ufunc
calls per network; any other list of same-shaped ``(param, grad)`` arrays
works too and gives bitwise the same update.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import isclose_zero

__all__ = ["Optimizer", "Adam"]

#: Entries are ``(param, grad)`` or ``(param, grad, segment_bounds)``.
ParamGrads = List[tuple]


class Optimizer(ABC):
    """Base optimiser; subclasses implement :meth:`_update`."""

    name = "optimizer"

    def __init__(self, learning_rate: float = 1e-3, grad_clip: float = 0.0):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate!r}")
        if grad_clip < 0:
            raise ValueError(f"grad_clip must be >= 0, got {grad_clip!r}")
        self.learning_rate = learning_rate
        self.grad_clip = grad_clip
        self._state: Dict[int, Dict[str, np.ndarray]] = {}
        # Two param-shaped work arrays per entry, reused every step.
        self._scratch: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.iterations = 0

    def step(self, params_and_grads: ParamGrads) -> None:
        """Update every parameter array in place from its gradient."""
        for index, (param, grad, *_) in enumerate(params_and_grads):
            if param.shape != grad.shape:
                raise ValueError(
                    f"param/grad shape mismatch at slot {index}: "
                    f"{param.shape} vs {grad.shape}"
                )
            scratch = self._scratch.get(index)
            if scratch is None or scratch[0].shape != param.shape:
                self._scratch[index] = (
                    np.empty_like(param),
                    np.empty_like(param),
                )
        self.iterations += 1
        scale = self._clip_scale(params_and_grads) if self.grad_clip else None
        for index, (param, grad, *_) in enumerate(params_and_grads):
            work, spare = self._scratch[index]
            if scale is not None:
                grad = np.multiply(grad, scale, out=spare)
            self._update(index, param, grad, work, spare)

    def _clip_scale(self, params_and_grads: ParamGrads) -> Optional[float]:
        """Global-norm clip factor (TensorFlow-style clip_by_global_norm),
        or None when the gradients are already inside the ball.

        The squared norm is accumulated one parameter array at a time —
        for an arena entry, one ``segment_bounds`` interval at a time —
        so a flat arena and the equivalent list of per-layer arrays round
        identically.
        """
        squares: List[float] = []
        for index, (_, grad, *bounds) in enumerate(params_and_grads):
            squared = np.multiply(grad, grad, out=self._scratch[index][0])
            if bounds:
                squares.extend(
                    float(np.sum(squared[lo:hi]))
                    for lo, hi in zip(bounds[0], bounds[0][1:])
                )
            else:
                squares.append(float(np.sum(squared)))
        total = np.sqrt(sum(squares))
        if total <= self.grad_clip or isclose_zero(total):
            return None
        return self.grad_clip / total

    @abstractmethod
    def _update(
        self,
        index: int,
        param: np.ndarray,
        grad: np.ndarray,
        work: np.ndarray,
        spare: np.ndarray,
    ) -> None:
        """Apply one update to ``param`` in place.

        ``work`` and ``spare`` are param-shaped scratch.  ``grad`` may *be*
        ``spare`` (a clipped gradient), so ``spare`` may only be written
        once ``grad`` has been read for the last time.
        """

    def reset(self) -> None:
        """Drop accumulated state (e.g. after re-initialising a network)."""
        self._state.clear()
        self._scratch.clear()
        self.iterations = 0

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Checkpointable snapshot: ``iterations`` plus every entry's
        accumulators under ``"<slot>/<name>"`` (copies)."""
        state = {"iterations": np.int64(self.iterations)}
        for index, slots in self._state.items():
            for name, value in slots.items():
                state[f"{index}/{name}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-exactly."""
        self.reset()
        self.iterations = int(state["iterations"])
        for key, value in state.items():
            if key == "iterations":
                continue
            index, name = key.split("/")
            self._state.setdefault(int(index), {})[name] = np.array(
                value, dtype=np.float64
            )


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) — default for all networks here."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        grad_clip: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(learning_rate, grad_clip)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must lie in [0, 1), got {beta1!r}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must lie in [0, 1), got {beta2!r}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon!r}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay!r}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay

    def _update(self, index, param, grad, work, spare):
        # Each line is the in-place form of the textbook expression on its
        # right, same operations in the same order (the bytes are pinned).
        state = self._state.get(index)
        if state is None:
            state = self._state[index] = {
                "m": np.zeros_like(param),
                "v": np.zeros_like(param),
            }
        m, v = state["m"], state["v"]
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=work)  # (1-b1)*g
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=work)
        v += np.multiply(work, grad, out=work)  # ((1-b2)*g)*g
        # grad is dead from here on, so spare is free.
        np.divide(m, 1.0 - self.beta1**self.iterations, out=work)  # m_hat
        np.multiply(work, self.learning_rate, out=work)  # lr*m_hat
        np.divide(v, 1.0 - self.beta2**self.iterations, out=spare)  # v_hat
        np.sqrt(spare, out=spare)
        spare += self.epsilon  # sqrt(v_hat)+eps
        param -= np.divide(work, spare, out=work)
        if self.weight_decay:
            # Decoupled (AdamW-style) decay: keeps logits from saturating.
            param -= np.multiply(
                param, self.learning_rate * self.weight_decay, out=work
            )

