"""RL-style environment interface over the microservice workflow system.

Maps the paper's Section IV-B definitions onto a ``reset``/``step`` API:

- **state** s(k) = w(k), the WIP vector (fully observable at window ends),
- **action** a(k) = m(k), the consumer allocation, constrained to
  ``sum_j m_j <= C``; :func:`allocation_from_simplex` applies the
  paper's ``m_j = floor(C * a_j)`` mapping to softmax-actor outputs,
- **reward** r(k) = 1 - sum_j w_j(k) (Eq. 1).

One environment step is one real control window — the "tens of seconds, or
even minutes" interaction the paper's sample-efficiency argument is about.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sim.metrics import WindowObservation
from repro.sim.system import MicroserviceWorkflowSystem
from repro.utils.rng import RngStream
from repro.utils.validation import check_integral

__all__ = ["MicroserviceEnv", "ConstraintViolation", "allocation_from_simplex"]


class ConstraintViolation(ValueError):
    """Raised when an allocation exceeds the consumer budget C."""


def allocation_from_simplex(
    simplexes: np.ndarray, consumer_budget: int
) -> np.ndarray:
    """The paper's ``m_j = floor(C * a_j)`` (§IV-D), row by row.

    Maps a ``(K, J)`` block of softmax outputs to consumer counts; one
    action is a batch of one.  Because every row sums to one, the floors
    always satisfy the budget.
    """
    simplexes = np.asarray(simplexes, dtype=np.float64)
    if simplexes.ndim != 2:
        raise ValueError(
            f"expected a (K, J) block of simplexes, got {simplexes.shape}"
        )
    # Reductions with an initial value: an empty block passes, a NaN fails.
    if not (
        simplexes.min(initial=0.0) >= -1e-9
        and abs(simplexes.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-6
    ):
        raise ValueError(f"not a probability simplex: {simplexes}")
    return np.floor(consumer_budget * simplexes.clip(0, 1)).astype(np.int64)


class MicroserviceEnv:
    """reset/step interface used by MIRAS and all learning baselines."""

    def __init__(self, system: MicroserviceWorkflowSystem):
        self.system = system
        self.consumer_budget = system.config.consumer_budget
        self.steps_taken = 0
        self.episodes = 0
        #: Real windows spent draining in :meth:`reset` — with
        #: ``steps_taken``, every real window this environment consumed.
        self.reset_windows = 0

    # Dimensions ------------------------------------------------------------
    @property
    def state_dim(self) -> int:
        """J, the number of microservices."""
        return self.system.ensemble.num_task_types

    @property
    def action_dim(self) -> int:
        """J — one allocation entry per microservice."""
        return self.system.ensemble.num_task_types

    # Action helpers -----------------------------------------------------------
    def random_allocation(self, rng: RngStream) -> np.ndarray:
        """A uniformly random feasible allocation (for data collection)."""
        simplex = rng.generator.dirichlet(np.ones(self.action_dim))
        return allocation_from_simplex(
            simplex[np.newaxis], self.consumer_budget
        )[0]

    def uniform_allocation(self) -> np.ndarray:
        """Budget split evenly (remainder to the lowest indices)."""
        base = self.consumer_budget // self.action_dim
        allocation = np.full(self.action_dim, base, dtype=np.int64)
        for i in range(self.consumer_budget - base * self.action_dim):
            allocation[i] += 1
        return allocation

    def check_budget(self, allocation: np.ndarray) -> np.ndarray:
        """Validate ``sum_j m_j <= C`` of whole counts; returns the int vector."""
        allocation = np.asarray(allocation)
        if allocation.shape != (self.action_dim,):
            raise ValueError(
                f"allocation has shape {allocation.shape}, expected "
                f"({self.action_dim},)"
            )
        counts = check_integral("allocation", allocation)
        if min(counts) < 0:
            raise ConstraintViolation(
                f"negative consumer counts: {allocation}"
            )
        total = int(sum(counts))
        if total > self.consumer_budget:
            raise ConstraintViolation(
                f"allocation uses {total} consumers, budget is "
                f"{self.consumer_budget}"
            )
        return allocation.astype(np.int64)

    # Core interface --------------------------------------------------------
    def observe(self) -> np.ndarray:
        """Current state w(k) without advancing time."""
        return self.system.wip_vector()

    def reset(self, max_windows: int = 40) -> np.ndarray:
        """The paper's episode reset: drain, then the uniform allocation.

        The drain ends with no request waiting in any queue (unless it
        hit ``max_windows``), so the returned state is the WIP still in
        service, not necessarily zero.  A system with nothing waiting —
        a freshly built one, say — is not over-provisioned at all and
        the reset costs no window.  (Under ``scale_down_mode="kill"``
        stepping down to the uniform allocation can put requests that
        were in service back in their queue.)
        """
        self.reset_windows += self.system.drain(max_windows=max_windows)
        self.system.apply_allocation(self.uniform_allocation())
        self.episodes += 1
        return self.observe()

    def inject_random_burst(
        self, rng: RngStream, probability: float, scale: float
    ) -> np.ndarray:
        """Occasionally start a collection episode with a request burst.

        With ``probability``, up to ``scale * C`` requests split over the
        workflow types by a Dirichlet draw (draw order: gate, total,
        split).  Keeps the dataset — and hence the environment model and
        policy — covering the high-WIP regime the Section VI-D evaluation
        bursts drive the system into.  Returns the state afterwards.
        """
        if probability > 0 and scale > 0 and float(rng.uniform()) < probability:
            total = int(rng.uniform(0.0, scale * self.consumer_budget))
            if total:
                names = self.system.ensemble.workflow_names()
                shares = rng.generator.dirichlet(np.ones(len(names)))
                self.system.inject_burst(
                    {n: int(round(total * s)) for n, s in zip(names, shares)}
                )
        return self.observe()

    def inject_even_burst(self, scale: float) -> np.ndarray:
        """The deterministic evaluation burst: ``scale * C`` requests split
        evenly over the workflow types.  Returns the state afterwards."""
        names = self.system.ensemble.workflow_names()
        per_type = int(scale * self.consumer_budget / len(names))
        if per_type > 0:
            self.system.inject_burst({n: per_type for n in names})
        return self.observe()

    def step(
        self, allocation: np.ndarray
    ) -> Tuple[np.ndarray, float, WindowObservation]:
        """Apply m(k), run one window, return (s(k+1), r(k+1), observation)."""
        allocation = self.check_budget(allocation)
        self.system.apply_allocation(allocation)
        observation = self.system.run_window()
        self.steps_taken += 1
        return observation.wip.copy(), observation.reward, observation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MicroserviceEnv({self.system.ensemble.name!r}, "
            f"C={self.consumer_budget}, steps={self.steps_taken})"
        )
