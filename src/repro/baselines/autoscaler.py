"""Horizontal-autoscaler baseline (Kubernetes HPA analog).

Not in the paper's comparison set, but the de-facto industry answer to the
problem MIRAS solves, so a natural extra baseline: scale each
microservice's consumer count toward a **target utilisation**, like the
Kubernetes Horizontal Pod Autoscaler's
``desired = ceil(current * metric / target)`` rule, then fit the desired
counts into the shared budget proportionally.

The utilisation metric per service is the fraction of its consumers busy
during the window (estimated from task completions x mean service time /
(consumers x window)).  Unlike MIRAS, the HPA rule is purely local per
service and has no notion of pipeline coupling or future reward.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.base import Allocator, largest_remainder_allocation
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation
from repro.utils.validation import check_in_range

__all__ = ["HpaAllocator"]


class HpaAllocator(Allocator):
    """Per-service target-utilisation scaling under a shared budget."""

    name = "hpa"

    def __init__(
        self,
        target_utilization: float = 0.7,
        min_replicas: int = 1,
        scale_up_limit: float = 2.0,
    ):
        check_in_range(
            "target_utilization", target_utilization, 0.0, 1.0,
            inclusive=(False, True),
        )
        if min_replicas < 0:
            raise ValueError(f"min_replicas must be >= 0, got {min_replicas}")
        if scale_up_limit <= 1.0:
            raise ValueError(
                f"scale_up_limit must exceed 1, got {scale_up_limit!r}"
            )
        self.target_utilization = target_utilization
        self.min_replicas = min_replicas
        #: Max multiplicative growth per window (HPA's scale-up policy).
        self.scale_up_limit = scale_up_limit
        self._previous: Optional[np.ndarray] = None

    def _on_bind(self, env: MicroserviceEnv) -> None:
        ensemble = env.system.ensemble
        self._task_names = ensemble.task_names()
        self._service_times = [
            ensemble.task(n).mean_service_time for n in self._task_names
        ]
        self._window = env.system.config.window_length
        self._previous = None

    def reset(self) -> None:
        self._previous = None

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        if self._previous is None or observation is None:
            # Cold start: uniform split at minimums.
            allocation = largest_remainder_allocation(
                np.ones(self.num_services), self.budget
            )
            self._previous = allocation
            return self._check(allocation)

        # Per service, in Python floats (the float64 arithmetic, without
        # a numpy call per operation).
        desired = []
        for w, name, service, previous in zip(
            np.asarray(wip, dtype=np.float64).tolist(),
            self._task_names,
            self._service_times,
            self._previous.tolist(),
        ):
            current = max(previous, 1)
            capacity = current * self._window
            busy_seconds = observation.task_completions.get(name, 0) * service
            utilization = min(max(busy_seconds / capacity, 0.0), 1.5)
            # Back-pressure correction: a deep queue means utilisation
            # alone understates demand (consumers saturated at 1.0); treat
            # queued work as extra utilisation pressure, as HPA does with
            # external queue-length metrics.
            queue_pressure = w * service / capacity
            metric = max(utilization, min(queue_pressure, 3.0))
            wanted = min(
                math.ceil(current * metric / self.target_utilization),
                math.ceil(current * self.scale_up_limit),
            )
            desired.append(max(wanted, self.min_replicas))

        if sum(desired) <= self.budget:
            allocation = np.array(desired, dtype=np.int64)
        else:
            allocation = largest_remainder_allocation(desired, self.budget)
            allocation = np.maximum(allocation, 0)
        self._previous = allocation
        return self._check(allocation)
