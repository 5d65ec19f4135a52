"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import quickstart_msd_agent
from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    MirasAllocator,
    UniformAllocator,
)
from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.eval.runner import evaluate_allocator, make_env
from repro.rl.ddpg import DDPGConfig
from repro.sim.system import SystemConfig
from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workload.bursts import BurstScenario

from tests.conftest import make_ligo_env, make_msd_env


def small_config(iterations=2):
    return MirasConfig(
        model=ModelConfig(hidden_sizes=(12, 12), epochs=10),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(32, 32), batch_size=16),
            rollout_length=8,
            rollouts_per_iteration=5,
            patience=3,
        ),
        steps_per_iteration=50,
        reset_interval=25,
        iterations=iterations,
        eval_steps=8,
    )


class TestMirasOnMsd:
    def test_full_training_and_deployment(self):
        env = make_msd_env(seed=31)
        agent = MirasAgent(env, small_config(), seed=31)
        results = agent.iterate()
        assert len(results) == 2
        # Deploy the trained policy through the allocator interface.
        allocator = MirasAllocator(agent=agent)
        eval_env = make_msd_env(seed=32)
        scenario = BurstScenario(
            "t", {"Type1": 30, "Type2": 20, "Type3": 20}, {"Type1": 0.05}
        )
        result = evaluate_allocator(allocator, eval_env, scenario, steps=10)
        assert len(result.records) == 10
        assert eval_env.system.conservation_ok()

    def test_quickstart_helper(self):
        agent, env = quickstart_msd_agent(seed=33)
        assert agent.results
        assert env.system.conservation_ok()


class TestMirasOnLigo:
    def test_ligo_training_runs(self):
        env = make_ligo_env(seed=34)
        agent = MirasAgent(env, small_config(iterations=1), seed=34)
        results = agent.iterate()
        assert len(results) == 1
        assert agent.env.state_dim == 9
        allocation = agent.act(np.zeros(9))
        assert allocation.sum() <= 30


class TestHeuristicsUnderBursts:
    @pytest.mark.parametrize(
        "allocator_cls", [UniformAllocator, DrsAllocator, HeftAllocator]
    )
    def test_allocator_drains_burst(self, allocator_cls):
        env = make_env(
            build_msd_ensemble(),
            config=SystemConfig(consumer_budget=14),
            seed=35,
            background_rates={"Type1": 0.02},
        )
        scenario = BurstScenario("b", {"Type1": 60}, {"Type1": 0.02})
        result = evaluate_allocator(allocator_cls(), env, scenario, steps=20)
        assert result.wip_series()[-1] < result.wip_series()[0]
        assert result.total_completions() > 30
        assert env.system.conservation_ok()


class TestConservationUnderChaos:
    def test_random_reallocations_never_lose_requests(self):
        """Property: arbitrary per-window reallocation (including scale to
        zero) never loses a request, in either scale-down mode."""
        for mode in ("drain", "kill"):
            env = make_msd_env(seed=36, scale_down_mode=mode)
            env.system.inject_burst({"Type1": 40, "Type3": 20})
            rng = env.system.workload_rng.fork("chaos")
            for _ in range(15):
                allocation = env.random_allocation(rng)
                env.step(allocation)
            assert env.system.conservation_ok(), mode

    def test_tds_failover_during_processing(self):
        env = make_msd_env(seed=37)
        env.system.inject_burst({"Type3": 10})
        env.system.tds.fail_server(0)
        for _ in range(10):
            env.step(env.uniform_allocation())
        assert env.system.invoker.completed_total > 0
        assert env.system.conservation_ok()


class TestCrossEnsembleGeneralisation:
    def test_agent_works_on_random_ensemble(self):
        """MIRAS is not MSD/LIGO-specific (Section I claim)."""
        from repro.sim.env import MicroserviceEnv
        from repro.sim.system import MicroserviceWorkflowSystem
        from repro.workflows import random_ensemble
        from repro.workload import PoissonArrivalProcess

        ensemble = random_ensemble(5, 2, seed=9)
        system = MicroserviceWorkflowSystem(
            ensemble, SystemConfig(consumer_budget=10), seed=38
        )
        rates = {w.name: 0.05 for w in ensemble.workflow_types}
        PoissonArrivalProcess(rates).attach(system)
        env = MicroserviceEnv(system)
        agent = MirasAgent(env, small_config(iterations=1), seed=38)
        results = agent.iterate()
        assert np.isfinite(results[0].eval_reward)
