"""Failure-injection integration: allocators under chaos.

The infrastructure's availability mechanisms (ack redelivery, container
restarts) must keep every allocator's control loop functional while
faults fire.
"""

import numpy as np
import pytest

from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    HpaAllocator,
    UniformAllocator,
)
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim.faults import ChaosInjector
from repro.sim.system import SystemConfig
from repro.workflows import build_msd_ensemble
from repro.workload.bursts import BurstScenario

SCENARIO = BurstScenario(
    "chaos-burst", {"Type1": 40, "Type2": 20, "Type3": 20}, {"Type1": 0.05}
)


@pytest.mark.parametrize(
    "allocator_cls",
    [UniformAllocator, DrsAllocator, HeftAllocator, HpaAllocator],
)
def test_allocators_survive_faults(allocator_cls):
    env = make_env(
        build_msd_ensemble(),
        config=SystemConfig(consumer_budget=14),
        seed=91,
        background_rates=dict(SCENARIO.background_rates),
    )
    chaos = ChaosInjector(env.system, consumer_crash_rate=1.0 / 45.0).start()
    result = evaluate_allocator(allocator_cls(), env, SCENARIO, steps=20)
    assert chaos.crashes_injected > 0
    assert env.system.conservation_ok()
    assert result.total_completions() > 20  # still making progress
    # The burst still drains despite the faults.
    assert result.wip_series()[-1] < result.wip_series()[0]


def test_chaos_costs_throughput():
    """Crashes waste work: completions under chaos <= fault-free run."""

    def run(crash_rate):
        env = make_env(
            build_msd_ensemble(),
            config=SystemConfig(consumer_budget=14, scale_down_mode="kill"),
            seed=92,
            background_rates=dict(SCENARIO.background_rates),
        )
        if crash_rate:
            ChaosInjector(env.system, consumer_crash_rate=crash_rate).start()
        result = evaluate_allocator(
            UniformAllocator(), env, SCENARIO, steps=20
        )
        return result.total_completions()

    clean = run(0.0)
    chaotic = run(1.0 / 15.0)  # one crash every ~15 s on average
    assert chaotic <= clean
