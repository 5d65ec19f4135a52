"""The interaction dataset D.

"D is the collected training data set, the element of which is tuple
(s(k), a(k), s(k+1))" (Section IV-C1).  The dataset owns the
per-dimension WIP percentiles the Lend–Giveback refinement needs
(Algorithm 1's tau_j and omega_j).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import RngStream
from repro.utils.validation import check_in_range, check_positive

__all__ = ["TransitionDataset"]


class TransitionDataset:
    """Growable store of (state, action, next_state) transitions."""

    def __init__(self, state_dim: int, action_dim: int):
        check_positive("state_dim", state_dim)
        check_positive("action_dim", action_dim)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._states: list = []
        self._actions: list = []
        self._next_states: list = []

    # Growth ------------------------------------------------------------------
    def add(
        self, state: np.ndarray, action: np.ndarray, next_state: np.ndarray
    ) -> None:
        """Append one transition."""
        state = np.asarray(state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        next_state = np.asarray(next_state, dtype=np.float64)
        if state.shape != (self.state_dim,):
            raise ValueError(f"state shape {state.shape} != ({self.state_dim},)")
        if action.shape != (self.action_dim,):
            raise ValueError(
                f"action shape {action.shape} != ({self.action_dim},)"
            )
        if next_state.shape != (self.state_dim,):
            raise ValueError(
                f"next_state shape {next_state.shape} != ({self.state_dim},)"
            )
        self._states.append(state)
        self._actions.append(action)
        self._next_states.append(next_state)

    # Views --------------------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(states, actions, next_states) as stacked arrays."""
        if not self._states:
            raise RuntimeError("dataset is empty")
        return (
            np.stack(self._states),
            np.stack(self._actions),
            np.stack(self._next_states),
        )

    # Statistics -----------------------------------------------------------------
    def wip_percentiles(self, p: float) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 1's thresholds: (tau, omega) per WIP dimension.

        ``tau_j`` is the p-percentile of w_j in D and ``omega_j`` the
        (100-p)-percentile.
        """
        check_in_range("p", p, 0.0, 50.0, inclusive=(False, False))
        states, _, _ = self.arrays()
        tau = np.percentile(states, p, axis=0)
        omega = np.percentile(states, 100.0 - p, axis=0)
        return tau, omega

    # Training helpers ---------------------------------------------------------
    def sample_states(self, count: int, rng: RngStream) -> np.ndarray:
        """Random states from D (model-env episode starts)."""
        check_positive("count", count)
        states, _, _ = self.arrays()
        idx = rng.choice(len(self), size=count, replace=count > len(self))
        return states[idx]

    def __len__(self) -> int:
        return len(self._states)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransitionDataset(n={len(self)}, dims="
            f"{self.state_dim}/{self.action_dim})"
        )
