"""The neural environment (performance) model f̂_Φ.

Section IV-C1: the model takes x = (s(k) || a(k)) and predicts s(k+1),
trained to minimise the one-step square error over D (Eq. 2) with
gradient descent and backpropagation.

State encoding: WIP is non-negative and spans three orders of magnitude
(near zero under background load, ~10³ during bursts), so inputs are
``log1p(s)``.  The regression target is the state *difference*
``s(k+1) - s(k)`` rather than the raw next state — per-window WIP changes
are physically bounded by arrival and processing rates regardless of the
absolute queue size, which makes the delta well-conditioned across load
regimes and lets the model extrapolate correctly into the burst regime.
(This is the parameterisation of Nagabandi et al. [25], which the paper
cites as its model-based foundation.)  Actions stay in raw consumer
counts.  Everything is additionally z-scored with statistics refreshed at
each fit.

Beyond one-step prediction, the model supports the *iterative rollout*
evaluation of Section VI-B ("we predict subsequent states and rewards
using the predicted state of the last time window"), which is also how
policy training consumes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.nn import MLP, Adam, MeanSquaredError
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive
from repro.utils.wip import log_wip

__all__ = ["EnvironmentModel"]

#: Adam step size of the model fit: Kingma & Ba's default.
LEARNING_RATE = 1e-3


class EnvironmentModel:
    """MLP dynamics model in log-state space with z-score normalisation."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden_sizes: Sequence[int] = (20, 20, 20),
        *,
        rng: RngStream,
        tracer: Optional[Tracer] = None,
    ):
        check_positive("state_dim", state_dim)
        check_positive("action_dim", action_dim)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.network = MLP(
            [state_dim + action_dim, *hidden_sizes, state_dim],
            output_activation="linear",
            rng=rng.fork("envmodel/net"),
        )
        self.optimizer = Adam(LEARNING_RATE)
        self.loss = MeanSquaredError()
        self._rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Lifetime epoch counter (the `step` of model/epoch_loss metrics).
        self.epochs_trained = 0
        in_dim = state_dim + action_dim
        self._norm: Dict[str, np.ndarray] = {
            "x_mean": np.zeros(in_dim),
            "x_std": np.ones(in_dim),
            "y_mean": np.zeros(state_dim),
            "y_std": np.ones(state_dim),
        }
        self.trained = False

    # Encoding --------------------------------------------------------------
    def _encode_state(self, states: np.ndarray) -> np.ndarray:
        return log_wip(states)

    def _encode_inputs(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [self._encode_state(states), np.asarray(actions, dtype=np.float64)],
            axis=1,
        )

    def _encode_targets(
        self, states: np.ndarray, next_states: np.ndarray
    ) -> np.ndarray:
        return np.asarray(next_states, dtype=np.float64) - np.asarray(
            states, dtype=np.float64
        )

    def _decode_prediction(
        self, states: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        return np.maximum(np.asarray(states, dtype=np.float64) + raw, 0.0)

    # Training --------------------------------------------------------------
    def fit(
        self,
        dataset: TransitionDataset,
        epochs: int = 40,
        batch_size: int = 64,
    ) -> List[float]:
        """Minimise Eq. (2) over D; returns per-epoch mean losses.

        Refitting on a grown dataset refreshes the normalisation statistics
        and continues from the current weights (the paper "train[s the]
        environment model incrementally with newly collected training
        data").
        """
        check_positive("epochs", epochs)
        states, actions, next_states = dataset.arrays()
        x = self._encode_inputs(states, actions)
        y = self._encode_targets(states, next_states)
        self._norm = {
            "x_mean": x.mean(axis=0),
            "x_std": np.maximum(x.std(axis=0), 1e-6),
            "y_mean": y.mean(axis=0),
            "y_std": np.maximum(y.std(axis=0), 1e-6),
        }
        x_n = (x - self._norm["x_mean"]) / self._norm["x_std"]
        y_n = (y - self._norm["y_mean"]) / self._norm["y_std"]

        history: List[float] = []
        batch_rng = self._rng.fork(f"epochs-{self.optimizer.iterations}")
        n = x_n.shape[0]
        for _ in range(epochs):
            order = batch_rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(
                    self.network.train_batch(
                        x_n[idx],
                        y_n[idx],
                        optimizer=self.optimizer,
                        loss=self.loss,
                    )
                )
            epoch_loss = float(np.mean(losses))
            history.append(epoch_loss)
            self.epochs_trained += 1
            if self.tracer.enabled:
                self.tracer.metric(
                    "model/epoch_loss", epoch_loss, step=self.epochs_trained
                )
        self.trained = True
        return history

    # Prediction -------------------------------------------------------------
    def predict(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        """One-step prediction ŝ(k+1) = f̂_Φ(s(k), a(k)) for a ``(K, ·)`` block.

        One network forward for all K rows; a 1-D state is a batch of one
        and gives a 1-D prediction.
        """
        state = np.asarray(state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        single = state.ndim == 1
        state2 = np.atleast_2d(state)
        action2 = np.atleast_2d(action)
        if state2.shape[1] != self.state_dim:
            raise ValueError(f"state dim {state2.shape[1]} != {self.state_dim}")
        if action2.shape[1] != self.action_dim:
            raise ValueError(
                f"action dim {action2.shape[1]} != {self.action_dim}"
            )
        if state2.shape[0] != action2.shape[0]:
            raise ValueError("state/action batch sizes differ")
        x = self._encode_inputs(state2, action2)
        x_n = (x - self._norm["x_mean"]) / self._norm["x_std"]
        y_n = self.network.forward(x_n)
        y = y_n * self._norm["y_std"] + self._norm["y_mean"]
        decoded = self._decode_prediction(state2, y)
        return decoded[0] if single else decoded

    def rollout(
        self, initial_state: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """Iterative multi-step prediction from an initial state.

        Feeds each prediction back as the next input — the green dotted
        trace of the paper's Fig. 5.  Returns the (T, state_dim) array of
        predicted states s(1..T).
        """
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        state = np.asarray(initial_state, dtype=np.float64).copy()
        trajectory = np.zeros((actions.shape[0], self.state_dim))
        for t, action in enumerate(actions):
            state = np.maximum(self.predict(state, action), 0.0)
            trajectory[t] = state
        return trajectory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnvironmentModel({self.network!r}, trained={self.trained})"
