"""Tests for the HPA-style autoscaler baseline."""

import numpy as np

from repro.baselines.autoscaler import HpaAllocator
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim.metrics import WindowObservation
from repro.sim.system import SystemConfig
from repro.workflows import build_msd_ensemble
from repro.workload.bursts import BurstScenario

from tests.conftest import make_msd_env


def observation(completions=None, publishes=None):
    return WindowObservation(
        index=0,
        start_time=0.0,
        end_time=30.0,
        wip=np.zeros(4),
        allocation=np.zeros(4, dtype=np.int64),
        reward=1.0,
        task_completions=completions or {},
        task_publishes=publishes or {},
    )


class TestHpaAllocator:
    def test_cold_start_is_uniform(self):
        allocator = HpaAllocator()
        allocator.bind(make_msd_env())
        allocation = allocator.allocate(np.zeros(4))
        assert allocation.sum() == 14
        assert allocation.max() - allocation.min() <= 1

    def test_scales_up_overloaded_service(self):
        env = make_msd_env()
        allocator = HpaAllocator()
        allocator.bind(env)
        allocator.allocate(np.zeros(4))  # cold start
        # Segment (6 s tasks) processed 15 completions with few replicas
        # and has a deep queue -> wants more.
        wip = np.array([0.0, 0.0, 80.0, 0.0])
        allocation = allocator.allocate(
            wip, observation(completions={"Segment": 15})
        )
        segment = env.system.ensemble.task_index("Segment")
        assert allocation[segment] == allocation.max()
        assert allocation.sum() <= 14

    def test_idle_services_shrink_toward_min(self):
        env = make_msd_env()
        allocator = HpaAllocator()
        allocator.bind(env)
        allocator.allocate(np.zeros(4))
        for _ in range(4):
            allocation = allocator.allocate(np.zeros(4), observation())
        assert np.all(allocation >= 1)
        assert allocation.sum() <= 14

    def test_budget_respected_under_pressure_everywhere(self):
        env = make_msd_env()
        allocator = HpaAllocator()
        allocator.bind(env)
        allocator.allocate(np.zeros(4))
        allocation = allocator.allocate(
            np.full(4, 500.0),
            observation(
                completions={n: 50 for n in env.system.ensemble.task_names()}
            ),
        )
        assert allocation.sum() <= 14

    def test_reset_clears_state(self):
        allocator = HpaAllocator()
        allocator.bind(make_msd_env())
        allocator.allocate(np.zeros(4))
        allocator.reset()
        assert allocator._previous is None

    def test_drains_a_burst_end_to_end(self):
        scenario = BurstScenario(
            "hpa-burst", {"Type1": 60, "Type3": 30}, {"Type1": 0.05}
        )
        env = make_env(
            build_msd_ensemble(),
            config=SystemConfig(consumer_budget=14),
            seed=81,
            background_rates=dict(scenario.background_rates),
        )
        result = evaluate_allocator(HpaAllocator(), env, scenario, steps=25)
        assert result.wip_series()[-1] < result.wip_series()[0]
        assert result.total_completions() > 40
        assert env.system.conservation_ok()
