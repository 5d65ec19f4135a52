"""MONAD: model-predictive-control resource allocation.

Re-implementation of the allocation idea of Nguyen & Nahrstedt, "MONAD:
Self-adaptive micro-service infrastructure for heterogeneous scientific
workflows" (ICAC 2017) — the paper's third baseline.  MONAD identifies a
performance model of the microservice system and plans resource changes
over a short horizon:

- **identification**: a linear model ``w(k+1) = A w(k) + B m(k) + c``
  fitted by ridge regression over observed transitions (the same
  (s, a, s') tuples MIRAS collects, for a fair interaction budget),
- **control**: each window, choose ``m`` minimising the predicted squared
  WIP over a short horizon subject to ``m >= 0`` and ``sum m <= C`` —
  projected-gradient descent on the continuous relaxation, then
  largest-remainder rounding.

The paper's criticism — "MONAD focuses on short-term returns and is not
suitable to yield a global optimal solution" — corresponds to the short
(1-step, :data:`HORIZON`) horizon here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import Allocator, largest_remainder_allocation
from repro.core.dataset import TransitionDataset
from repro.rl.noise import project_to_simplex
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation
from repro.utils.validation import check_positive

__all__ = ["LinearPerformanceModel", "MonadAllocator"]

#: Ridge penalty of the linear performance model's least-squares fit.
RIDGE = 1.0
#: MPC lookahead in windows: MONAD's one-step controller.
HORIZON = 1
#: Projected-gradient iterations, and their step size, per allocation.
GRADIENT_STEPS = 100
STEP_SIZE = 0.5


class LinearPerformanceModel:
    """Ridge-regression linear dynamics ``w' = A w + B m + c``."""

    def __init__(self, state_dim: int, action_dim: int):
        check_positive("state_dim", state_dim)
        check_positive("action_dim", action_dim)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.A = np.eye(state_dim)
        self.B = np.zeros((state_dim, action_dim))
        self.c = np.zeros(state_dim)
        self.fitted = False

    def fit(self, dataset: TransitionDataset) -> float:
        """Least-squares fit; returns the training MSE."""
        states, actions, next_states = dataset.arrays()
        n = states.shape[0]
        design = np.concatenate(
            [states, actions, np.ones((n, 1))], axis=1
        )
        gram = design.T @ design + RIDGE * np.eye(design.shape[1])
        theta = np.linalg.solve(gram, design.T @ next_states)
        self.A = theta[: self.state_dim].T
        self.B = theta[self.state_dim : self.state_dim + self.action_dim].T
        self.c = theta[-1]
        self.fitted = True
        residual = design @ theta - next_states
        return float(np.mean(residual**2))

    def predict(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        return self.A @ state + self.B @ action + self.c


class MonadAllocator(Allocator):
    """One-step MPC over the linear model."""

    name = "monad"

    def __init__(self):
        self.model: Optional[LinearPerformanceModel] = None

    # Identification ---------------------------------------------------------
    def fit_from_dataset(
        self, env: MicroserviceEnv, dataset: TransitionDataset
    ) -> None:
        """Fit the linear model on an existing interaction dataset.

        The comparison harness passes MIRAS's, so MONAD gets exactly the
        same real-environment interaction budget.
        """
        self.bind(env)
        self.model = LinearPerformanceModel(env.state_dim, env.action_dim)
        self.model.fit(dataset)

    # Control ------------------------------------------------------------------
    def _project(self, m: np.ndarray) -> np.ndarray:
        """Project onto {m >= 0, sum m <= C}."""
        m = np.maximum(m, 0.0)
        total = float(m.sum())
        if total <= self.budget:
            return m
        return self.budget * project_to_simplex((m / self.budget)[np.newaxis])[0]

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        if self.model is None or not self.model.fitted:
            raise RuntimeError("call fit_from_dataset() first")
        wip = np.asarray(wip, dtype=np.float64)
        # Continuous relaxation, warm-started at a uniform split.
        m = np.full(self.num_services, self.budget / self.num_services)
        for _ in range(GRADIENT_STEPS):
            gradient = self._objective_gradient(wip, m)
            m = self._project(m - STEP_SIZE * gradient)
        allocation = largest_remainder_allocation(m, self.budget)
        return self._check(allocation)

    def _objective_gradient(self, wip: np.ndarray, m: np.ndarray) -> np.ndarray:
        """d/dm of sum over the horizon of ||ŵ(k+h)||^2 (same m each step)."""
        model = self.model
        gradient = np.zeros_like(m)
        state = wip
        # Accumulated sensitivity d state / d m across the horizon.
        sensitivity = np.zeros((model.state_dim, model.action_dim))
        for _ in range(HORIZON):
            sensitivity = model.A @ sensitivity + model.B
            state = model.predict(state, m)
            clipped = np.maximum(state, 0.0)
            active = (state > 0).astype(np.float64)
            gradient += 2.0 * (clipped * active) @ sensitivity
            state = clipped
        return gradient
