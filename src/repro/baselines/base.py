"""Shared allocator interface and helpers.

Every algorithm in the paper's comparison decides, at the beginning of each
time window, "only the number of machines allocated to each task" under the
budget ``sum_j m_j <= C``.  The :class:`Allocator` interface captures exactly
that: observe the WIP vector (plus the previous window's observation) and
emit an integer allocation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation
from repro.utils.validation import check_integral

__all__ = [
    "Allocator",
    "largest_remainder_allocation",
    "TaskArrivalRateEstimator",
]


def largest_remainder_allocation(
    weights: np.ndarray, budget: int
) -> np.ndarray:
    """Apportion ``budget`` integer units proportionally to ``weights``.

    Hamilton's largest-remainder method: floor the proportional shares,
    then hand the leftover units to the largest fractional remainders.
    All-zero (or negative-clipped-to-zero) weights fall back to a uniform
    split; a NaN or infinite weight raises.  The result always sums to
    exactly ``budget``.  The shares are Python floats, which round as
    float64 arrays do; the ranking of the remainders is numpy's.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    weights = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    n = weights.size
    if n == 0:
        raise ValueError("weights must be non-empty")
    total = float(np.add.reduce(weights))  # weights.sum(), unwrapped
    if not math.isfinite(total):
        raise ValueError(f"weights must be finite: {weights}")
    if total <= 0:
        weights = np.ones(n)
        total = float(n)
    shares = [budget * w / total for w in weights.tolist()]
    allocation = [int(share) for share in shares]  # floor: shares are >= 0
    remainder = budget - sum(allocation)
    if remainder > 0:
        fractional = np.array([s - m for s, m in zip(shares, allocation)])
        for idx in np.argsort(-fractional)[:remainder].tolist():
            allocation[idx] += 1
    return np.array(allocation, dtype=np.int64)


class TaskArrivalRateEstimator:
    """EWMA estimate of per-queue *arrival* rates (requests/second).

    Measures only messages published to each queue — the quantity a
    steady-state queueing model (DRS) provisions for.  Accumulated
    backlog does not enter the
    estimate, which is precisely why DRS "does not react responsively to
    condition changes" (Section VI-D): after a burst window passes, the
    rate estimate decays even though the backlog remains.
    """

    def __init__(self, num_services: int, window_length: float, alpha: float = 0.3):
        if num_services < 1:
            raise ValueError(f"num_services must be >= 1, got {num_services}")
        if window_length <= 0:
            raise ValueError(
                f"window_length must be positive, got {window_length!r}"
            )
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        self.num_services = num_services
        self.window_length = window_length
        self.alpha = alpha
        self._rates = np.zeros(num_services)
        self._initialized = False

    def update(self, observation: WindowObservation, task_names) -> np.ndarray:
        """Fold one window's publish counts in; returns the estimate."""
        publishes = np.array(
            [observation.task_publishes.get(name, 0) for name in task_names],
            dtype=np.float64,
        )
        rates = publishes / self.window_length
        if self._initialized:
            self._rates = self.alpha * rates + (1 - self.alpha) * self._rates
        else:
            self._rates = rates
            self._initialized = True
        return self._rates.copy()

    @property
    def rates(self) -> np.ndarray:
        return self._rates.copy()

    def reset(self) -> None:
        self._rates = np.zeros(self.num_services)
        self._initialized = False


class Allocator(ABC):
    """Per-window resource allocation policy.

    Lifecycle: :meth:`prepare` runs once and may be expensive (the learning
    baselines train there); :meth:`bind` attaches the allocator to the
    environment it will control (the comparison harness trains on one
    system and evaluates on a fresh one with identical arrivals, so these
    are separate systems); :meth:`reset` clears per-episode state.
    """

    #: Short name used in reports ("miras", "stream", "heft", ...).
    name = "allocator"

    def prepare(self, env: MicroserviceEnv) -> None:
        """One-time setup; learning baselines train here.

        Default implementation just binds — heuristic allocators need no
        training.
        """
        self.bind(env)

    def bind(self, env: MicroserviceEnv) -> None:
        """Attach to the environment this allocator will control."""
        self.num_services = env.action_dim
        self.budget = env.consumer_budget
        self._on_bind(env)

    def _on_bind(self, env: MicroserviceEnv) -> None:
        """Hook for cheap env-derived state (ranks, estimators, ...)."""

    def reset(self) -> None:
        """Clear per-episode state (estimators etc.).  Default: no-op."""

    @abstractmethod
    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        """Integer allocation for the next window; must satisfy the budget."""

    def _check(self, allocation: np.ndarray) -> np.ndarray:
        allocation = np.asarray(allocation)
        try:
            counts = check_integral("allocation", allocation)
        except ValueError as error:
            raise RuntimeError(
                f"{self.name} produced a non-integral allocation {allocation}"
            ) from error
        allocation = np.asarray(allocation, dtype=np.int64)
        if min(counts) < 0 or sum(counts) > self.budget:
            raise RuntimeError(
                f"{self.name} produced an infeasible allocation {allocation} "
                f"(budget {self.budget})"
            )
        return allocation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
