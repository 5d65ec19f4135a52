"""The softmax actor network.

"We design output of actor network as a categorical distribution over J
different possible categories, by applying a softmax activation function at
the output layer.  The categorical distribution can then be translated into
numbers of consumers by multiplying with the total number of consumers C:
m_j(k) = floor(C * a_j(k))" (Section IV-D).

State inputs are normalised by a fixed scale (WIP counts can reach
hundreds; raw counts would saturate the first layer).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.nn import MLP, Adam
from repro.utils.rng import RngStream, fallback_stream
from repro.utils.validation import check_positive

__all__ = ["Actor"]


class Actor:
    """Deterministic policy mu_theta: state -> point on the action simplex."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden_sizes: Sequence[int] = (256, 256, 256),
        learning_rate: float = 1e-4,
        state_scale: float = 100.0,
        rng: Optional[RngStream] = None,
        output_mixing: float = 0.02,
        weight_decay: float = 1e-4,
    ):
        check_positive("state_dim", state_dim)
        check_positive("action_dim", action_dim)
        check_positive("state_scale", state_scale)
        if not 0 <= output_mixing < 1:
            raise ValueError(
                f"output_mixing must lie in [0, 1), got {output_mixing!r}"
            )
        if rng is None:
            rng = fallback_stream("actor")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.state_scale = state_scale
        #: Mix a little uniform mass into the softmax: a <- (1-eps)a + eps/J.
        #: Keeps the policy off exact simplex corners, where the softmax
        #: Jacobian vanishes and the deterministic policy gradient dies.
        self.output_mixing = output_mixing
        self.network = MLP(
            [state_dim, *hidden_sizes, action_dim],
            hidden_activation="relu",
            output_activation="softmax",
            rng=rng.fork("actor/net"),
            final_init="small_uniform",
        )
        self.target_network = self.network.clone()
        self.optimizer = Adam(
            learning_rate, grad_clip=1.0, weight_decay=weight_decay
        )

    def normalize(self, states: np.ndarray) -> np.ndarray:
        """Compress raw WIP states into a range the MLP handles well.

        WIP is non-negative and heavy-tailed (background load keeps it
        near zero; bursts push it into the hundreds), so a log transform
        keeps resolution near the boundary while bounding burst states:
        ``log1p(w) / log1p(state_scale)`` is ~1 at ``state_scale`` WIP.
        """
        states = np.asarray(states, dtype=np.float64)
        return np.log1p(np.maximum(states, 0.0)) / np.log1p(self.state_scale)

    def _mix(self, actions: np.ndarray) -> np.ndarray:
        if not self.output_mixing:
            return actions
        uniform = 1.0 / self.action_dim
        return (1.0 - self.output_mixing) * actions + self.output_mixing * uniform

    def act(
        self, states: np.ndarray, network: Optional[MLP] = None
    ) -> np.ndarray:
        """Actions for a ``(K, state_dim)`` block in one forward, optionally
        through a perturbed network; one state is a batch of one."""
        return self.actions(self.normalize(states), network)

    def actions(
        self, features: np.ndarray, network: Optional[MLP] = None
    ) -> np.ndarray:
        """Actions for already-:meth:`normalize`-d states (one forward)."""
        return self._mix((network or self.network).forward(features))

    def policy_gradient_step(
        self,
        features: np.ndarray,
        dq_da_at: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        """Deterministic policy gradient ascent step.

        Forwards the policy on normalised states, asks ``dq_da_at(a)`` for
        the critic's gradient of Q w.r.t. the action at those actions, and
        backpropagates through the activations of that same forward.
        Ascending Q means descending -Q, so ``-dq_da / B`` goes through
        the actor before its optimiser steps (Silver et al. 2014, as
        quoted in the paper's Section IV-D).
        """
        actions = self.actions(features)
        dq_da = np.atleast_2d(dq_da_at(actions))
        if dq_da.shape != actions.shape:
            raise ValueError(
                f"dq_da shape {dq_da.shape} != "
                f"({actions.shape[0]}, {self.action_dim})"
            )
        # The uniform mixing is affine, so its chain-rule factor is a
        # constant (1 - eps) on the incoming gradient.
        scale = (1.0 - self.output_mixing) / actions.shape[0]
        self.network.backward(-dq_da * scale)
        self.optimizer.step(self.network.params_and_grads())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Actor({self.network!r})"
