"""The allocators' per-window arithmetic as numpy arrays, kept verbatim.

Oracles for ``test_allocator_oracle.py``: the library computes these
J-entry vectors in Python floats, which must round exactly as the array
code below did, window after window (DRS's rate estimate and HPA's
previous allocation carry state between windows).
"""

import numpy as np

from repro.baselines import DrsAllocator, HpaAllocator, UniformAllocator
from repro.baselines.drs import mmc_expected_number


def reference_largest_remainder_allocation(weights, budget):
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    weights = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
    n = weights.size
    if n == 0:
        raise ValueError("weights must be non-empty")
    total = float(weights.sum())
    if total <= 0:
        weights = np.ones(n)
        total = float(n)
    shares = budget * weights / total
    allocation = np.floor(shares).astype(np.int64)
    remainder = budget - int(allocation.sum())
    if remainder > 0:
        fractional = shares - allocation
        for idx in np.argsort(-fractional)[:remainder]:
            allocation[idx] += 1
    return allocation


def reference_check(allocator, allocation):
    allocation = np.asarray(allocation, dtype=np.int64)
    if np.any(allocation < 0) or int(allocation.sum()) > allocator.budget:
        raise RuntimeError(
            f"{allocator.name} produced an infeasible allocation {allocation} "
            f"(budget {allocator.budget})"
        )
    return allocation


class ReferenceUniform(UniformAllocator):
    def allocate(self, wip, observation=None):
        return reference_check(
            self,
            reference_largest_remainder_allocation(
                np.ones(self.num_services), self.budget
            ),
        )


class ReferenceDrs(DrsAllocator):
    def _on_bind(self, env):
        super()._on_bind(env)
        self._service_rates = np.array(self._service_rates)

    def allocate(self, wip, observation=None):
        if observation is not None:
            rates = self._estimator.update(observation, self._task_names)
        else:
            rates = self._estimator.rates
        rates = np.maximum(rates, self.rate_floor)
        offered = rates / self._service_rates
        allocation = np.floor(offered).astype(np.int64) + 1
        if int(allocation.sum()) > self.budget:
            return reference_check(
                self, reference_largest_remainder_allocation(offered, self.budget)
            )
        remaining = self.budget - int(allocation.sum())
        service_rates = self._service_rates
        current_en = np.array(
            [
                mmc_expected_number(r, s, int(m))
                for r, s, m in zip(rates, service_rates, allocation)
            ]
        )
        next_en = np.array(
            [
                mmc_expected_number(r, s, int(m) + 1)
                for r, s, m in zip(rates, service_rates, allocation)
            ]
        )
        for _ in range(remaining):
            gains = current_en - next_en
            best = int(np.argmax(gains))
            if gains[best] <= 0:
                break
            allocation[best] += 1
            current_en[best] = next_en[best]
            next_en[best] = mmc_expected_number(
                rates[best], service_rates[best], int(allocation[best]) + 1
            )
        return reference_check(self, allocation)


class ReferenceHpa(HpaAllocator):
    def _on_bind(self, env):
        super()._on_bind(env)
        self._service_times = np.array(self._service_times)

    def allocate(self, wip, observation=None):
        wip = np.asarray(wip, dtype=np.float64)
        if self._previous is None or observation is None:
            allocation = reference_largest_remainder_allocation(
                np.ones(self.num_services), self.budget
            )
            self._previous = allocation
            return reference_check(self, allocation)
        completions = np.array(
            [
                observation.task_completions.get(name, 0)
                for name in self._task_names
            ],
            dtype=np.float64,
        )
        current = np.maximum(self._previous, 1)
        busy_seconds = completions * self._service_times
        utilization = np.clip(
            busy_seconds / (current * self._window), 0.0, 1.5
        )
        queue_pressure = wip * self._service_times / (current * self._window)
        metric = np.maximum(utilization, np.minimum(queue_pressure, 3.0))
        desired = np.ceil(current * metric / self.target_utilization)
        desired = np.minimum(
            desired, np.ceil(current * self.scale_up_limit)
        )
        desired = np.maximum(desired, self.min_replicas)
        total = int(desired.sum())
        if total <= self.budget:
            allocation = desired.astype(np.int64)
        else:
            allocation = reference_largest_remainder_allocation(
                desired, self.budget
            )
            allocation = np.maximum(allocation, 0)
        self._previous = allocation
        return reference_check(self, allocation)
