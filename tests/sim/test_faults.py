"""Tests for fault injection: consumer crashes."""

import numpy as np
import pytest

from repro.sim.consumer import ConsumerState
from repro.sim.faults import ChaosInjector

from tests.conftest import make_msd_env


class TestCrashOneConsumer:
    def test_busy_consumer_crash_redelivers_and_replaces(self):
        env = make_msd_env(seed=51, startup_delay_range=(0.0, 0.0))
        env.system.inject_burst({"Type1": 10})
        env.system.apply_allocation([2, 0, 0, 0])
        env.system.loop.run_until(1.0)
        ingest = env.system.microservices["Ingest"]
        assert ingest.busy_consumers == 2

        before_redelivered = ingest.redelivered_total
        assert ingest.crash_one()
        assert ingest.redelivered_total == before_redelivered + 1
        assert ingest.allocated == 2  # replacement launched immediately
        env.system.loop.run_until(200.0)
        assert ingest.conservation_ok()
        assert env.system.conservation_ok()

    def test_crash_with_no_consumers_returns_false(self):
        env = make_msd_env(seed=52)
        ingest = env.system.microservices["Ingest"]
        assert not ingest.crash_one()

    def test_crash_idle_consumer(self):
        env = make_msd_env(seed=53, startup_delay_range=(0.0, 0.0))
        env.system.apply_allocation([1, 0, 0, 0])
        env.system.loop.run_until(1.0)
        ingest = env.system.microservices["Ingest"]
        assert ingest.crash_one()
        assert ingest.allocated == 1  # replaced


class TestChaosInjector:
    def test_crashes_do_not_lose_requests(self):
        env = make_msd_env(seed=54)
        env.system.inject_burst({"Type1": 30, "Type3": 20})
        env.system.apply_allocation([4, 4, 3, 3])
        chaos = ChaosInjector(
            env.system, consumer_crash_rate=1.0 / 20.0
        ).start()
        for _ in range(15):
            env.system.run_window()
        assert chaos.crashes_injected > 0
        assert env.system.conservation_ok()

    def test_stop_halts_faults(self):
        env = make_msd_env(seed=56)
        env.system.apply_allocation([3, 3, 3, 3])
        chaos = ChaosInjector(
            env.system, consumer_crash_rate=1.0 / 5.0
        ).start()
        env.system.run_window()
        chaos.stop()
        count = chaos.crashes_injected
        for _ in range(5):
            env.system.run_window()
        assert chaos.crashes_injected == count

    def test_double_start_rejected(self):
        env = make_msd_env(seed=57)
        chaos = ChaosInjector(env.system, consumer_crash_rate=0.1).start()
        with pytest.raises(RuntimeError):
            chaos.start()

    def test_invalid_rates(self):
        env = make_msd_env(seed=58)
        with pytest.raises(ValueError):
            ChaosInjector(env.system, consumer_crash_rate=-1.0)

    def test_training_survives_chaos(self):
        """MIRAS training continues under faults (robustness check)."""
        from repro.core.agent import MirasAgent
        from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
        from repro.rl.ddpg import DDPGConfig

        env = make_msd_env(seed=59)
        ChaosInjector(env.system, consumer_crash_rate=1.0 / 60.0).start()
        config = MirasConfig(
            model=ModelConfig(hidden_sizes=(8,), epochs=3),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
                rollout_length=5,
                rollouts_per_iteration=2,
                patience=2,
            ),
            steps_per_iteration=25,
            reset_interval=10,
            iterations=1,
            eval_steps=3,
        )
        agent = MirasAgent(env, config, seed=59)
        results = agent.iterate()
        assert np.isfinite(results[0].eval_reward)
        assert env.system.conservation_ok()
