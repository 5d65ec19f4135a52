"""Tests for SystemConfig's drain derivation."""

from repro.sim.system import SystemConfig


class TestDrainConsumers:
    def test_default_scales_with_task_count(self):
        config = SystemConfig(consumer_budget=30)
        # 3 budgets' worth over J services.
        assert config.resolved_drain_consumers(9) == 10
        assert config.resolved_drain_consumers(4) == 23

    def test_floor_of_two(self):
        config = SystemConfig(consumer_budget=2)
        assert config.resolved_drain_consumers(100) == 2
