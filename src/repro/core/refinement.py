"""Model refinement: the Lend–Giveback procedure (Algorithm 1).

Near the WIP boundary (w_j ≈ 0) the raw neural model is unreliable: the
real system is dominated by arrival randomness there, so "no clear
connection between w(k) and m(k) could be observed" (Section IV-C2).
Because microservice types are loosely coupled — w_j(k+1) is mostly
determined by w_j(k) and m_j(k) — the refinement *lends* tasks to a
below-threshold dimension to move the query into the well-modelled
region, predicts, then *gives back* the lent tasks:

    for each dimension j with s_j(k) < tau_j:
        rho_j ~ Uniform(tau_j, omega_j)
        t(k) = s(k) with t_j += rho_j
        t(k+1) = f̂_Φ(t(k), a(k))
        ŝ_j(k+1) = max(t_j(k+1) - rho_j, 0)

where tau_j / omega_j are the p / (100-p) percentiles of w_j over the
dataset D.  Dimensions at or above tau_j pass through the raw model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.rng import RngStream

__all__ = ["RefinedModel"]

#: Algorithm 1's Lend–Giveback percentile p: tau is each WIP column's p-th
#: percentile, omega its (100-p)-th (20, the one value MIRAS uses).
PERCENTILE = 20.0
#: Least tau, and least omega - tau: keeps the boundary region non-empty
#: when the dataset is dominated by zero-WIP samples (the p-percentile of
#: a mostly-zero column is 0, which would disable the refinement exactly
#: where the paper needs it — at w_j ~ 0).
TAU_FLOOR = 1.0


class RefinedModel:
    """Wraps an :class:`EnvironmentModel` with Algorithm 1."""

    def __init__(
        self,
        model: EnvironmentModel,
        tau: np.ndarray,
        omega: np.ndarray,
        rng: RngStream,
        tracer: Optional[Tracer] = None,
    ):
        tau = np.asarray(tau, dtype=np.float64)
        omega = np.asarray(omega, dtype=np.float64)
        if tau.shape != (model.state_dim,):
            raise ValueError(
                f"tau shape {tau.shape} != ({model.state_dim},)"
            )
        if omega.shape != tau.shape:
            raise ValueError(f"omega shape {omega.shape} != tau shape {tau.shape}")
        if np.any(omega < tau):
            raise ValueError("omega must be >= tau per dimension")
        self.model = model
        self.tau = tau
        self.omega = omega
        self._rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Count of Lend–Giveback activations (for tests/ablation).
        self.lend_count = 0
        #: Sum of |refined - raw| corrections (the lend–giveback delta).
        self.lend_delta_total = 0.0

    @classmethod
    def from_dataset(
        cls,
        model: EnvironmentModel,
        dataset: TransitionDataset,
        rng: RngStream,
        tracer: Optional[Tracer] = None,
    ) -> "RefinedModel":
        """Initialise tau/omega by "simple statistical analysis" over D:
        the :data:`PERCENTILE` bands, floored at :data:`TAU_FLOOR`."""
        tau, omega = dataset.wip_percentiles(PERCENTILE)
        tau = np.maximum(tau, TAU_FLOOR)
        omega = np.maximum(omega, tau + TAU_FLOOR)
        return cls(model, tau, omega, rng=rng, tracer=tracer)

    @property
    def state_dim(self) -> int:
        return self.model.state_dim

    @property
    def action_dim(self) -> int:
        return self.model.action_dim

    # Prediction -------------------------------------------------------------
    def predict(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Refined one-step predictions for a ``(K, state_dim)`` block.

        Algorithm 1 dimension-major: one raw-model forward for all K rows,
        then one lend forward per below-threshold *dimension* covering
        every affected row, with that dimension's uniform draws taken
        together.  At K=1 this is the per-dimension draw order of the
        one-state algorithm.  Above-threshold dimensions use the raw
        model; the output is clamped at 0 in every dimension.  A 1-D
        state is a batch of one and gives a 1-D prediction.
        """
        states = np.asarray(states, dtype=np.float64)
        single = states.ndim == 1
        states = np.atleast_2d(states)
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if states.shape[0] != actions.shape[0]:
            raise ValueError(
                f"state/action batch sizes differ: "
                f"{states.shape[0]} vs {actions.shape[0]}"
            )
        base = np.asarray(self.model.predict(states, actions))
        refined = np.maximum(base, 0.0)
        for j in range(self.state_dim):
            low, high = self.tau[j], self.omega[j]
            if high <= low:
                continue  # degenerate thresholds: nothing to lend
            rows = np.nonzero(states[:, j] < low)[0]
            if rows.size == 0:
                continue
            rho = self._rng.uniform(low, high, size=rows.size)
            lent = states[rows].copy()
            lent[:, j] += rho  # Lend
            predicted = self.model.predict(lent, actions[rows])
            giveback = np.maximum(predicted[:, j] - rho, 0.0)  # Giveback
            refined[rows, j] = giveback
            self.lend_count += int(rows.size)
            self.lend_delta_total += float(
                np.sum(np.abs(giveback - np.maximum(base[rows, j], 0.0)))
            )
            if self.tracer.enabled:
                self.tracer.count("refinement/lends", int(rows.size))
        return refined[0] if single else refined

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """:meth:`predict` under the name the synthetic environment calls."""
        return self.predict(states, actions)

    def below_threshold(self, state: np.ndarray) -> np.ndarray:
        """Boolean mask of dimensions the refinement would adjust."""
        return np.asarray(state, dtype=np.float64) < self.tau

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RefinedModel(tau={np.round(self.tau, 1)}, "
            f"lends={self.lend_count})"
        )
