"""DRS: dynamic resource scheduling via Jackson open queueing networks.

Re-implementation of the allocation core of Fu et al., "DRS: Dynamic
Resource Scheduling for Real-Time Analytics over Fast Streams" (ICDCS
2015) — the paper's "stream" baseline.  DRS models every operator
(here: microservice) as an M/M/m queue inside a Jackson open network and
chooses the integer server counts minimising the expected total number of
requests in the system (equivalently, by Little's law, the expected total
sojourn time) under the budget:

1. estimate each service's arrival rate lambda_j (we use the shared
   task-inflow estimator) and service rate mu_j = 1 / mean service time,
2. give every service the minimum servers for stability
   (m_j = floor(lambda_j/mu_j) + 1),
3. spend the remaining budget greedily, each unit to the service whose
   expected queue population drops the most (the marginal-gain rule DRS
   proves near-optimal for this separable convex objective).

The paper's observation that DRS "does not react responsively to condition
changes" stems from the steady-state M/M/m assumption — a burst is treated
only through its effect on the smoothed arrival-rate estimate.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.baselines.base import (
    Allocator,
    TaskArrivalRateEstimator,
    largest_remainder_allocation,
)
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation

__all__ = ["DrsAllocator", "erlang_c", "mmc_expected_number"]

#: EWMA weight of the newest window in the arrival-rate estimate DRS
#: provisions for (see :class:`~repro.baselines.base.TaskArrivalRateEstimator`).
RATE_SMOOTHING = 0.3
#: Least arrival rate (requests/s) a service is provisioned for, so a
#: service that saw no arrivals still gets its one stabilising server.
RATE_FLOOR = 1e-3


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C: probability an arrival waits in an M/M/m queue.

    ``offered_load`` is a = lambda/mu (in Erlangs); requires a < servers for
    a stable queue.  Computed with the standard recurrence on the Erlang-B
    blocking probability for numerical stability.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be >= 0, got {offered_load!r}")
    if offered_load == 0:
        return 0.0
    if offered_load >= servers:
        return 1.0  # unstable: every arrival waits
    # Erlang-B recurrence: B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1)).
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def mmc_expected_number(
    arrival_rate: float, service_rate: float, servers: int
) -> float:
    """Expected number of requests in an M/M/m system (E[N]).

    ``E[N] = a + C(m, a) * rho / (1 - rho)`` with a = lambda/mu and
    rho = a/m; returns ``inf`` when unstable (a >= m).
    """
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate!r}")
    if arrival_rate < 0:
        raise ValueError(f"arrival_rate must be >= 0, got {arrival_rate!r}")
    if arrival_rate == 0:
        return 0.0
    offered = arrival_rate / service_rate
    if offered >= servers:
        return math.inf
    rho = offered / servers
    return offered + erlang_c(servers, offered) * rho / (1.0 - rho)


class DrsAllocator(Allocator):
    """Jackson-network greedy server allocation."""

    name = "stream"

    def __init__(self):
        self._estimator: Optional[TaskArrivalRateEstimator] = None

    def _on_bind(self, env: MicroserviceEnv) -> None:
        ensemble = env.system.ensemble
        self._task_names = ensemble.task_names()
        self._service_rates = [
            1.0 / ensemble.task(n).mean_service_time for n in self._task_names
        ]
        self._estimator = TaskArrivalRateEstimator(
            self.num_services,
            env.system.config.window_length,
            alpha=RATE_SMOOTHING,
        )

    def reset(self) -> None:
        if self._estimator is not None:
            self._estimator.reset()

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        if self._estimator is None:
            raise RuntimeError("call bind() before allocate()")
        if observation is not None:
            rates = self._estimator.update(observation, self._task_names)
        else:
            rates = self._estimator.rates
        # J-entry vectors as Python floats: the same float64 arithmetic
        # without a numpy call per operation.
        rates = [max(r, RATE_FLOOR) for r in rates.tolist()]
        service_rates = self._service_rates

        # Step 2: minimum stable allocation (offered loads are >= 0, so
        # int() is the floor).
        offered = [r / s for r, s in zip(rates, service_rates)]
        allocation = [int(a) + 1 for a in offered]
        if sum(allocation) > self.budget:
            # Budget cannot even stabilise the estimated load: degrade to
            # offered-load-proportional apportionment (DRS's fallback regime).
            return self._check(
                largest_remainder_allocation(offered, self.budget)
            )

        # Step 3: greedy marginal-gain spending of the remaining budget.
        # E[N] at m_j and at m_j + 1 per service; a unit changes one m_j,
        # so only that service's next value is recomputed.
        remaining = self.budget - sum(allocation)
        current_en = [
            mmc_expected_number(r, s, m)
            for r, s, m in zip(rates, service_rates, allocation)
        ]
        next_en = [
            mmc_expected_number(r, s, m + 1)
            for r, s, m in zip(rates, service_rates, allocation)
        ]
        gains = [c - n for c, n in zip(current_en, next_en)]
        services = range(len(gains))
        for _ in range(remaining):
            best = max(services, key=gains.__getitem__)  # first maximum
            if gains[best] <= 0:
                break  # nothing left to improve; keep spare capacity idle
            allocation[best] += 1
            current_en[best] = next_en[best]
            next_en[best] = mmc_expected_number(
                rates[best], service_rates[best], allocation[best] + 1
            )
            gains[best] = current_en[best] - next_en[best]
        return self._check(allocation)
