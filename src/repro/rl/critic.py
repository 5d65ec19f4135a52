"""The critic (Q) network.

"We use the same parameters for the Critic network, except that we insert
one of Critic's inputs — action — to the second layer" (Section VI-A3).
The :class:`repro.nn.MLP` auxiliary-input mechanism implements exactly
that: the state feeds the first layer, the action is concatenated into the
second layer's input.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.nn import MLP, Adam, MeanSquaredError
from repro.rl.actor import STATE_SCALE
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive
from repro.utils.wip import log_wip

__all__ = ["Critic"]

#: Critic Adam step size: DDPG's (Lillicrap et al.).
LEARNING_RATE = 1e-3

#: Rewards are divided by this before critic regression; sized for the
#: burst regime where |r| reaches a few thousand (Eq. 1 at high WIP).
REWARD_SCALE = 500.0


class Critic:
    """Action-value network Q(s, a) with the action injected at layer 2."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden_sizes: Sequence[int] = (256, 256, 256),
        *,
        rng: RngStream,
    ):
        check_positive("state_dim", state_dim)
        check_positive("action_dim", action_dim)
        if len(hidden_sizes) < 1:
            raise ValueError("critic needs at least one hidden layer")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.reward_scale = REWARD_SCALE
        self.network = MLP(
            [state_dim, *hidden_sizes, 1],
            output_activation="linear",
            aux_dim=action_dim,
            aux_layer=1,
            rng=rng.fork("critic/net"),
            final_init="small_uniform",
        )
        self.target_network = self.network.clone()
        self.optimizer = Adam(LEARNING_RATE, grad_clip=1.0)
        self.loss = MeanSquaredError()

    def normalize_states(self, states: np.ndarray) -> np.ndarray:
        """Same log compression as the actor (see Actor.normalize)."""
        return log_wip(states) / np.log1p(STATE_SCALE)

    # Every method below takes states already through
    # :meth:`normalize_states`, so a caller that feeds several networks
    # normalises once (DDPGAgent's update).
    def q_features(
        self, features: np.ndarray, actions: np.ndarray, target: bool = False
    ) -> np.ndarray:
        network = self.target_network if target else self.network
        return network.forward(features, aux=actions) * self.reward_scale

    def train_features(
        self, features: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> float:
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        scaled = targets / self.reward_scale
        prediction = self.network.forward(features, aux=actions)
        value, grad = self.loss(prediction, scaled)
        self.network.backward(grad)
        self.optimizer.step(self.network.params_and_grads())
        return value

    def q_and_action_gradient(
        self, features: np.ndarray, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(Q(s, a), dQ/da)`` from one forward: Q in reward units, the
        gradient dQ/da (the policy-gradient ingredient) in network-output
        units."""
        dq_da = self.network.input_gradient(features, aux=actions, wrt="aux")
        return self.network.output * self.reward_scale, dq_da

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Critic({self.network!r})"
