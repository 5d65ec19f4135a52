"""The Adam optimiser.

It operates on lists of (parameter, gradient) array pairs,
keeping per-entry state (Adam moments) keyed by position.
:class:`repro.nn.network.MLP` supplies its whole flat arena as *one* entry,
``(params, grads, segment_bounds)``, so a step is a dozen in-place ufunc
calls per network; any other list of same-shaped ``(param, grad)`` arrays
works too and gives bitwise the same update.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive, isclose_zero

__all__ = ["Adam"]

#: Entries are ``(param, grad)`` or ``(param, grad, segment_bounds)``.
ParamGrads = List[tuple]

#: Moment decay rates and denominator guard: Kingma & Ba's recommended
#: defaults (TensorFlow's too); the paper names no others.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam optimiser (Kingma & Ba) — the one optimiser of every network here."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        grad_clip: float = 0.0,
        weight_decay: float = 0.0,
    ):
        check_positive("learning_rate", learning_rate)
        check_non_negative("grad_clip", grad_clip)
        check_non_negative("weight_decay", weight_decay)
        self.learning_rate = learning_rate
        self.grad_clip = grad_clip
        self.weight_decay = weight_decay
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
        identically.  The terms are added left to right, one rounding
        each: builtin ``sum`` compensates since Python 3.12, so it would
        clip differently from one interpreter to the next.
        """
        squares = 0.0
        for index, (_, grad, *bounds) in enumerate(params_and_grads):
            squared = np.multiply(grad, grad, out=self._scratch[index][0])
            if bounds:
                for lo, hi in zip(bounds[0], bounds[0][1:]):
                    squares += float(squared[lo:hi].sum())
            else:
                squares += float(squared.sum())
        total = np.sqrt(squares)
        if total <= self.grad_clip or isclose_zero(total):
            return None
        return self.grad_clip / total

    def _update(self, index, param, grad, work, spare):
        """Apply one update to ``param`` in place.

        ``work`` and ``spare`` are param-shaped scratch.  ``grad`` may *be*
        ``spare`` (a clipped gradient), so ``spare`` may only be written
        once ``grad`` has been read for the last time.
        """
        # Each line is the in-place form of the textbook expression on its
        # right, same operations in the same order (the bytes are pinned).
        state = self._state.get(index)
        if state is None:
            state = self._state[index] = {
                "m": np.zeros_like(param),
                "v": np.zeros_like(param),
            }
        m, v = state["m"], state["v"]
        m *= BETA1
        m += np.multiply(grad, 1.0 - BETA1, out=work)  # (1-b1)*g
        v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=work)
        v += np.multiply(work, grad, out=work)  # ((1-b2)*g)*g
        # grad is dead from here on, so spare is free.
        np.divide(m, 1.0 - BETA1**self.iterations, out=work)  # m_hat
        np.multiply(work, self.learning_rate, out=work)  # lr*m_hat
        np.divide(v, 1.0 - BETA2**self.iterations, out=spare)  # v_hat
        np.sqrt(spare, out=spare)
        spare += EPSILON  # sqrt(v_hat)+eps
        param -= np.divide(work, spare, out=work)
        if self.weight_decay:
            # Decoupled (AdamW-style) decay: keeps logits from saturating.
            param -= np.multiply(
                param, self.learning_rate * self.weight_decay, out=work
            )

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
