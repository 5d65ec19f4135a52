"""HEFT adapted to per-window resource allocation.

The paper adapts the list-scheduling algorithm HEFT (Yu, Buyya &
Ramamohanarao [37]) to its setting: "we assign tasks with priorities using
their proposed method.  At the beginning of each time window we make
resource allocation decisions based on both task number and task priority."

HEFT's priority is the *upward rank*: ``rank_u(t) = w_t + max over
successors rank_u(succ)`` — the critical-path-to-exit length from the
task.  A task type shared by several workflows takes its maximum rank.
The per-window allocation weights each microservice by
``queue length x priority`` and apportions the budget proportionally.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.base import Allocator, largest_remainder_allocation
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation
from repro.workflows.dag import WorkflowEnsemble

__all__ = ["HeftAllocator", "upward_ranks"]

#: Added to every queue length before it is weighted by rank, so a service
#: with an empty queue keeps a share in proportion to its priority.
SMOOTHING = 0.5


def upward_ranks(ensemble: WorkflowEnsemble) -> Dict[str, float]:
    """HEFT upward rank per task type, maximised across workflows.

    Within each workflow DAG, ``rank_u(t) = mean_service(t) + max over
    successors of rank_u``; exit tasks rank at their own service time.
    """
    service_times = ensemble.mean_service_times()
    ranks: Dict[str, float] = {name: 0.0 for name in ensemble.task_names()}
    for workflow in ensemble.workflow_types:
        local: Dict[str, float] = {}
        for task in reversed(workflow.topological_order()):
            successor_best = max(
                (local[s] for s in workflow.successors(task)), default=0.0
            )
            local[task] = service_times[task] + successor_best
        for task, rank in local.items():
            ranks[task] = max(ranks[task], rank)
    return ranks


class HeftAllocator(Allocator):
    """queue-length x upward-rank proportional allocation."""

    name = "heft"

    def _on_bind(self, env: MicroserviceEnv) -> None:
        ensemble = env.system.ensemble
        ranks = upward_ranks(ensemble)
        self._ranks = np.array(
            [ranks[name] for name in ensemble.task_names()]
        )

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        wip = np.asarray(wip, dtype=np.float64)
        # "based on both task number and task priority":
        weights = (wip + SMOOTHING) * self._ranks
        return self._check(
            largest_remainder_allocation(weights, self.budget)
        )
