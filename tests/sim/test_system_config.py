"""Tests for SystemConfig capacity/drain derivations."""

import pytest

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


class TestNodeCapacity:
    def test_headroom_covers_drain_total(self):
        config = SystemConfig(consumer_budget=30, num_nodes=3)
        capacity = config.resolved_node_capacity(9)
        drain_total = config.resolved_drain_consumers(9) * 9
        assert 3 * capacity >= 1.3 * drain_total

    def test_explicit_capacity_wins(self):
        config = SystemConfig(consumer_budget=30, node_capacity=7)
        assert config.resolved_node_capacity(9) == 7

    def test_budget_floor(self):
        config = SystemConfig(consumer_budget=100, num_nodes=3)
        capacity = config.resolved_node_capacity(2)
        assert 3 * capacity >= 100
