"""DRS's greedy step against the full-recompute loop it replaced.

``DrsAllocator.allocate`` spends the budget one server at a time, each to
the service whose E[N] drops most.  It keeps E[N] at ``m_j`` and at
``m_j + 1`` per service and, after a unit goes to ``best``, recomputes
only ``next_en[best]`` — every other service's pair is unchanged, and
``current_en - next_en`` is the same IEEE subtraction per element the
old loop did one service at a time, so ``argmax`` (ties included) picks
the same service.  ``reference_allocate`` is the old steps 2-3 verbatim
(``self.`` fields made parameters, plus the ``seen.add`` lines that
record which regime a call reached); the test compares allocations on
generated rates, service rates and budgets that reach the offered-load
fallback, exact gain ties and the zero-gain early stop.
"""

from types import SimpleNamespace

import numpy as np

from repro.baselines.base import largest_remainder_allocation
from repro.baselines.drs import DrsAllocator, mmc_expected_number
from repro.sim.metrics import WindowObservation

DRAWS = 400


def reference_allocate(rates, service_rates, budget, num_services, seen):
    """The pre-change greedy; records which regime each call reached."""
    # Step 2: minimum stable allocation.
    offered = rates / service_rates
    allocation = np.floor(offered).astype(np.int64) + 1
    if int(allocation.sum()) > budget:
        # Budget cannot even stabilise the estimated load: degrade to
        # offered-load-proportional apportionment (DRS's fallback regime).
        seen.add("fallback")
        return largest_remainder_allocation(offered, budget)

    # Step 3: greedy marginal-gain spending of the remaining budget.
    remaining = budget - int(allocation.sum())
    current_en = np.array(
        [
            mmc_expected_number(r, s, int(m))
            for r, s, m in zip(rates, service_rates, allocation)
        ]
    )
    for _ in range(remaining):
        gains = np.empty(num_services)
        next_en = np.empty(num_services)
        for j in range(num_services):
            next_en[j] = mmc_expected_number(
                rates[j], service_rates[j], int(allocation[j]) + 1
            )
            gains[j] = current_en[j] - next_en[j]
        best = int(np.argmax(gains))
        if int(np.sum(gains == gains[best])) > 1:
            seen.add("tie")
        if gains[best] <= 0:
            seen.add("zero-gain stop")
            break  # nothing left to improve; keep spare capacity idle
        allocation[best] += 1
        current_en[best] = next_en[best]
    return allocation


def draw(rng):
    """One (names, mean service times, publishes, window, budget, floor)."""
    n = int(rng.integers(1, 10))
    names = [f"S{j}" for j in range(n)]
    # Few distinct values, so equal (rate, service rate) pairs — exact
    # gain ties — are common; zero publishes with a zero floor give
    # services whose E[N] is 0 at any server count.
    means = rng.choice([0.5, 1.0, 2.5, 4.0], size=n)
    publishes = rng.choice([0, 0, 3, 12, 40, 90, 400], size=n)
    window = float(rng.choice([10.0, 30.0]))
    budget = int(rng.integers(1, 60))
    floor = float(rng.choice([0.0, 1e-3]))
    return names, means, publishes, window, budget, floor


def production_allocate(names, means, publishes, window, budget, floor):
    """``DrsAllocator`` bound to a stub env and fed one observation."""
    ensemble = SimpleNamespace(
        task_names=lambda: list(names),
        task=lambda name: SimpleNamespace(
            mean_service_time=float(means[names.index(name)])
        ),
    )
    env = SimpleNamespace(
        action_dim=len(names),
        consumer_budget=budget,
        system=SimpleNamespace(
            ensemble=ensemble, config=SimpleNamespace(window_length=window)
        ),
    )
    allocator = DrsAllocator(rate_floor=floor)
    allocator.bind(env)
    observation = WindowObservation(
        index=0,
        start_time=0.0,
        end_time=window,
        wip=np.zeros(len(names)),
        allocation=np.zeros(len(names), dtype=np.int64),
        reward=0.0,
        task_publishes=dict(zip(names, (int(p) for p in publishes))),
    )
    return allocator.allocate(np.zeros(len(names)), observation)


def test_incremental_greedy_equals_full_recompute():
    rng = np.random.default_rng(2015)
    seen = set()
    for case in range(DRAWS):
        names, means, publishes, window, budget, floor = draw(rng)
        rates = np.maximum(publishes.astype(np.float64) / window, floor)
        service_rates = np.array([1.0 / float(m) for m in means])
        expected = reference_allocate(
            rates, service_rates, budget, len(names), seen
        )
        got = production_allocate(names, means, publishes, window, budget, floor)
        assert got.tolist() == expected.tolist(), (
            f"draw {case}: {got.tolist()} != {expected.tolist()}"
        )
    assert {"fallback", "tie", "zero-gain stop"} <= seen, seen
