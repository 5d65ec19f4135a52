"""Property-based tests of system-wide invariants.

These use hypothesis to sweep random ensembles, workloads and allocation
sequences, asserting the invariants listed in DESIGN.md §4.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.env import MicroserviceEnv
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.workflows import random_ensemble
from repro.workload import PoissonArrivalProcess

from tests.conftest import set_startup_delay


def build_random_system(
    num_tasks, num_workflows, seed, budget=10, scale_down_mode="drain"
):
    ensemble = random_ensemble(num_tasks, num_workflows, seed=seed)
    system = MicroserviceWorkflowSystem(
        ensemble,
        SystemConfig(consumer_budget=budget, scale_down_mode=scale_down_mode),
        seed=seed,
    )
    rates = {w.name: 0.03 for w in ensemble.workflow_types}
    PoissonArrivalProcess(rates).attach(system)
    return MicroserviceEnv(system)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_tasks=st.integers(2, 7),
    num_workflows=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(["drain", "kill"]),
)
def test_conservation_on_random_ensembles(num_tasks, num_workflows, seed, mode):
    """No request is ever lost, for any ensemble, workload, allocation
    sequence, or scale-down mode."""
    env = build_random_system(num_tasks, num_workflows, seed, scale_down_mode=mode)
    env.system.inject_burst(
        {env.system.ensemble.workflow_names()[0]: 15}
    )
    rng = env.system.workload_rng.fork("prop")
    for _ in range(8):
        env.step(env.random_allocation(rng))
    assert env.system.conservation_ok()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_tasks=st.integers(2, 7),
    num_workflows=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
def test_wip_non_negative_and_reward_consistent(num_tasks, num_workflows, seed):
    """WIP is non-negative and reward always equals Eq. (1)."""
    env = build_random_system(num_tasks, num_workflows, seed)
    rng = env.system.workload_rng.fork("prop")
    for _ in range(6):
        state, reward, _ = env.step(env.random_allocation(rng))
        assert np.all(state >= 0)
        assert reward == pytest.approx(1.0 - float(state.sum()))


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_tasks=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_completed_workflows_visited_every_task(num_tasks, seed):
    """Every completed workflow instance completed each of its tasks
    exactly once (AND-join correctness on random DAGs)."""
    ensemble = random_ensemble(num_tasks, 2, seed=seed)
    system = set_startup_delay(MicroserviceWorkflowSystem(
        ensemble, SystemConfig(consumer_budget=12), seed=seed,
    ), (0.0, 0.0))
    requests = [
        system.submit(name) for name in ensemble.workflow_names() for _ in range(3)
    ]
    system.apply_allocation(
        np.full(ensemble.num_task_types, 12 // ensemble.num_task_types or 1)
    )
    system.loop.run_until(3000.0)
    completed = [r for r in requests if r.completion_time is not None]
    assert completed, "nothing completed — allocation or routing broken"
    for request in completed:
        workflow = ensemble.workflow(request.workflow_type)
        assert request.completed_tasks == set(workflow.tasks)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 100_000), budget=st.integers(1, 40))
def test_every_allocator_respects_any_budget(seed, budget):
    """DRS/HEFT/uniform/WIP-proportional stay within arbitrary budgets."""
    from repro.baselines import (
        DrsAllocator,
        HeftAllocator,
        ProportionalToWipAllocator,
        UniformAllocator,
    )

    env = build_random_system(4, 2, seed % 100, budget=budget)
    rng = np.random.default_rng(seed)
    wip = rng.uniform(0, 200, env.state_dim)
    for allocator in (
        UniformAllocator(),
        ProportionalToWipAllocator(),
        DrsAllocator(),
        HeftAllocator(),
    ):
        allocator.bind(env)
        allocation = allocator.allocate(wip)
        assert int(allocation.sum()) <= budget
        assert np.all(allocation >= 0)
