"""Clairvoyant oracle allocator (upper-bound anchor).

Not one of the paper's baselines — a diagnostic upper bound.  The oracle
peeks *inside* the queues (which no online allocator can): for every
queued or in-flight task request it computes the **remaining downstream
work** of its workflow instance — the mean service time of this task plus
every not-yet-completed task reachable from it in the instance's DAG —
and allocates consumers proportionally to each microservice's share of
service-time-weighted work, biased toward stages whose output unlocks the
most downstream processing.

A learnt policy approaching the oracle's aggregated reward is close to
what full-information reactive allocation achieves on this substrate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.base import Allocator, largest_remainder_allocation
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation

__all__ = ["OracleAllocator"]


class OracleAllocator(Allocator):
    """Full-information proportional allocation by remaining work."""

    name = "oracle"

    def _on_bind(self, env: MicroserviceEnv) -> None:
        self._system = env.system
        self._ensemble = env.system.ensemble
        self._service_times = self._ensemble.mean_service_times()

    def _remaining_work(self) -> np.ndarray:
        """Service-time-weighted pending work per microservice.

        Immediate work: each queued/in-flight request contributes its own
        mean service time to its current queue.  Downstream work of a
        request is *not* attributed yet (it will reach those queues when
        published), but each task's weight is boosted by the downstream
        service time it unlocks, which prioritises pipeline heads exactly
        when their completion feeds starving successors.
        """
        ensemble = self._ensemble
        work = np.zeros(ensemble.num_task_types)
        for name, microservice in self._system.microservices.items():
            j = ensemble.task_index(name)
            # Peek at ready + unacked requests (oracle privilege).
            requests = (
                list(microservice._ready)
                + list(microservice._unacked.values())
            )
            for task_request in requests:
                workflow = ensemble.workflow(
                    task_request.workflow.workflow_type
                )
                own = self._service_times[name]
                downstream = self._downstream_time(
                    workflow, name, task_request.workflow.completed_tasks
                )
                # Own work dominates; the downstream term breaks ties
                # toward stages that unblock more of the pipeline.
                work[j] += own + 0.25 * downstream
        return work

    def _downstream_time(self, workflow, task: str, completed) -> float:
        """Total mean service time of uncompleted tasks reachable from
        ``task`` in this workflow instance."""
        seen = set()
        stack = [task]
        while stack:
            current = stack.pop()
            for successor in workflow.successors(current):
                if successor in seen or successor in completed:
                    continue
                seen.add(successor)
                stack.append(successor)
        # fsum is correctly rounded regardless of iteration order, so the
        # set's hash-dependent ordering cannot perturb the result.
        return math.fsum(self._service_times[s] for s in seen)

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        work = self._remaining_work()
        return self._check(largest_remainder_allocation(work, self.budget))
