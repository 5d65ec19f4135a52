"""Tests for fault injection: crashes and TDS outages."""

import numpy as np
import pytest

from repro.sim.consumer import ConsumerState
from repro.sim.faults import ChaosInjector, crash_one_consumer

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
        assert crash_one_consumer(ingest)
        assert ingest.redelivered_total == before_redelivered + 1
        assert ingest.allocated == 2  # replacement launched immediately
        env.system.loop.run_until(200.0)
        assert ingest.conservation_ok()
        assert env.system.conservation_ok()

    def test_crash_with_no_consumers_returns_false(self):
        env = make_msd_env(seed=52)
        ingest = env.system.microservices["Ingest"]
        assert not crash_one_consumer(ingest)

    def test_crash_idle_consumer(self):
        env = make_msd_env(seed=53, startup_delay_range=(0.0, 0.0))
        env.system.apply_allocation([1, 0, 0, 0])
        env.system.loop.run_until(1.0)
        ingest = env.system.microservices["Ingest"]
        assert crash_one_consumer(ingest)
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

    def test_outages_respect_quorum(self):
        env = make_msd_env(seed=55)
        chaos = ChaosInjector(
            env.system,
            tds_outage_rate=1.0 / 15.0,
            tds_outage_duration=30.0,
        ).start()
        env.system.inject_burst({"Type3": 10})
        env.system.apply_allocation([3, 3, 3, 3])
        for _ in range(20):
            env.system.run_window()
            # A majority stays up at all times.
            assert env.system.tds.healthy_count >= env.system.tds.quorum
        assert chaos.outages_injected > 0
        assert env.system.invoker.completed_total > 0

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
        with pytest.raises(ValueError):
            ChaosInjector(env.system, tds_outage_duration=0.0)

    def test_training_survives_chaos(self):
        """MIRAS training continues under faults (robustness check)."""
        from repro.core.agent import MirasAgent
        from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
        from repro.rl.ddpg import DDPGConfig

        env = make_msd_env(seed=59)
        ChaosInjector(
            env.system,
            consumer_crash_rate=1.0 / 60.0,
            tds_outage_rate=1.0 / 120.0,
        ).start()
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
