"""Generated-scenario differential suite: serial vs batched substrate.

The named cases in ``test_batched_substrate.py`` pin the situations
someone thought of; this module draws scenarios instead.  Each seed
yields an ensemble (MSD, or LIGO for its AND-joins), a consumer budget,
a window length, a scale-down mode and a plan of per-window allocations
(zeros included, so services sit without consumers) and bursts; the two
substrates run it side by side and must agree on
:func:`repro.sim.substrate.substrate_snapshot` after every window.

The batched side would pass that by never attempting its vectorised
replay, so the suite also requires that a floor share of all windows was
replayed — set a margin below what the generator measures (58 % of 336
windows over the 60 tier-1 scenarios; 15 % before start-ups, drained
queues, terminating consumers and cancelled rows became replay events).
A nightly run can raise ``SCENARIOS``; scenario ``k`` is the same
whatever the count.
"""

import numpy as np

from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.workflows import build_ligo_ensemble, build_msd_ensemble

SCENARIOS = 60
REPLAYED_SHARE_FLOOR = 0.45


def generate(seed):
    """Scenario ``seed``: ``(ensemble builder, config, plan)``, the plan a
    list of ``(allocation or None, burst)`` per window."""
    rng = np.random.default_rng(seed)
    builder = (build_msd_ensemble, build_ligo_ensemble)[int(rng.integers(2))]
    budget = int(rng.choice([8, 30, 120, 300]))
    config = SystemConfig(
        consumer_budget=budget,
        window_length=float(rng.choice([5.0, 30.0, 120.0])),
        scale_down_mode=("drain", "kill")[int(rng.integers(2))],
    )
    ensemble = builder()
    services = ensemble.num_task_types
    plan = []
    for window in range(int(rng.integers(3, 9))):
        weights = rng.random(services) * (rng.random(services) < 0.7)
        if not weights.any():
            weights[int(rng.integers(services))] = 1.0
        allocation = np.floor(weights / weights.sum() * budget).astype(int)
        keep = window > 0 and rng.random() < 0.4
        burst = {}
        if window == 0 or rng.random() < 0.3:
            for name in ensemble.workflow_names():
                if rng.random() < 0.6:
                    burst[name] = int(rng.integers(1, 8 * budget))
        plan.append((None if keep else allocation, burst))
    return builder, config, plan


def run(cls, seed):
    """Drive one substrate through scenario ``seed``; a snapshot a window."""
    builder, config, plan = generate(seed)
    system = cls(builder(), config, seed=seed)
    snapshots = []
    for allocation, burst in plan:
        if allocation is not None:
            system.apply_allocation(allocation)
        if burst:
            system.inject_burst(burst)
        system.run_window()
        snapshots.append(substrate_snapshot(system))
    assert system.conservation_ok(), f"scenario {seed} lost a request"
    return system, snapshots


def test_generated_scenarios_agree_and_mostly_replay():
    windows = replayed = 0
    aborts = {}
    for seed in range(SCENARIOS):
        _, serial = run(MicroserviceWorkflowSystem, seed)
        batched_system, batched = run(BatchedWorkflowSystem, seed)
        for window, (a, b) in enumerate(zip(serial, batched)):
            assert a == b, f"scenario {seed} diverged at window {window}"
        assert not batched_system.fast_ineligible_reasons
        windows += batched_system.window_index
        replayed += batched_system.fast_windows
        for reason, count in batched_system.fast_abort_reasons.items():
            aborts[reason] = aborts.get(reason, 0) + count
    assert replayed + sum(aborts.values()) == windows
    assert replayed >= REPLAYED_SHARE_FLOOR * windows, (
        f"only {replayed} of {windows} windows replayed (aborts: {aborts})"
    )
