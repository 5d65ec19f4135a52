"""Tests for the DRS (queueing) and HEFT (priority) baselines."""

import numpy as np
import pytest

from repro.baselines.drs import DrsAllocator, erlang_c, mmc_expected_number
from repro.baselines.heft import HeftAllocator, upward_ranks
from repro.sim.metrics import WindowObservation
from repro.workflows import build_ligo_ensemble, build_msd_ensemble

from tests.conftest import make_msd_env


def observation_with(publishes):
    return WindowObservation(
        index=0,
        start_time=0.0,
        end_time=30.0,
        wip=np.zeros(4),
        allocation=np.zeros(4, dtype=np.int64),
        reward=1.0,
        task_publishes=publishes,
    )


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(3, 0.0) == 0.0

    def test_unstable_load_waits_surely(self):
        assert erlang_c(2, 2.5) == 1.0

    def test_single_server_equals_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.6) == pytest.approx(0.6)

    def test_more_servers_less_waiting(self):
        assert erlang_c(4, 2.0) < erlang_c(3, 2.0)

    def test_known_value(self):
        # Classic Erlang-C table: m=2, a=1 -> C = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(1, -1.0)


class TestMmcExpectedNumber:
    def test_mm1_formula(self):
        # M/M/1: E[N] = rho / (1 - rho).
        assert mmc_expected_number(0.5, 1.0, 1) == pytest.approx(1.0)

    def test_unstable_is_infinite(self):
        assert mmc_expected_number(3.0, 1.0, 2) == np.inf

    def test_zero_arrivals(self):
        assert mmc_expected_number(0.0, 1.0, 3) == 0.0

    def test_monotone_in_servers(self):
        values = [mmc_expected_number(2.0, 1.0, m) for m in range(3, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestDrsAllocator:
    def test_allocation_feasible_and_full_budget_under_load(self):
        env = make_msd_env()
        allocator = DrsAllocator()
        allocator.bind(env)
        observation = observation_with(
            {"Ingest": 60, "Preprocess": 60, "Segment": 30, "Analyze": 30}
        )
        allocation = allocator.allocate(np.zeros(4), observation)
        assert allocation.sum() <= 14
        assert np.all(allocation >= 0)

    def test_heavier_load_gets_more_servers(self):
        env = make_msd_env()
        allocator = DrsAllocator()
        allocator.bind(env)
        observation = observation_with(
            {"Ingest": 10, "Preprocess": 10, "Segment": 120, "Analyze": 10}
        )
        allocation = allocator.allocate(np.zeros(4), observation)
        segment = env.system.ensemble.task_index("Segment")
        assert allocation[segment] == allocation.max()

    def test_overload_falls_back_to_proportional(self):
        env = make_msd_env()
        allocator = DrsAllocator()
        allocator.bind(env)
        observation = observation_with(
            {"Ingest": 9000, "Preprocess": 9000, "Segment": 9000, "Analyze": 9000}
        )
        allocation = allocator.allocate(np.zeros(4), observation)
        assert allocation.sum() == 14  # spends everything

    def test_reset_clears_estimator(self):
        env = make_msd_env()
        allocator = DrsAllocator()
        allocator.bind(env)
        allocator.allocate(np.zeros(4), observation_with({"Ingest": 300}))
        allocator.reset()
        assert np.all(allocator._estimator.rates == 0)

    def test_allocate_before_bind_raises(self):
        with pytest.raises(RuntimeError):
            DrsAllocator().allocate(np.zeros(4))


class TestUpwardRanks:
    def test_chain_rank_accumulates(self):
        ranks = upward_ranks(build_msd_ensemble())
        # Ingest heads every chain: its rank includes downstream stages.
        assert ranks["Ingest"] > ranks["Segment"]
        assert ranks["Ingest"] > ranks["Analyze"]

    def test_exit_task_rank_is_service_time(self):
        ensemble = build_msd_ensemble()
        ranks = upward_ranks(ensemble)
        assert ranks["Segment"] == pytest.approx(
            ensemble.task("Segment").mean_service_time
        )

    def test_all_tasks_ranked(self):
        ensemble = build_ligo_ensemble()
        ranks = upward_ranks(ensemble)
        assert set(ranks) == set(ensemble.task_names())
        assert all(r > 0 for r in ranks.values())


class TestHeftAllocator:
    def test_weights_queue_times_priority(self):
        env = make_msd_env()
        allocator = HeftAllocator()
        allocator.bind(env)
        wip = np.array([50.0, 0.0, 0.0, 0.0])
        allocation = allocator.allocate(wip)
        ingest = env.system.ensemble.task_index("Ingest")
        assert allocation[ingest] == allocation.max()
        assert allocation.sum() == 14

    def test_empty_system_still_spends_budget(self):
        env = make_msd_env()
        allocator = HeftAllocator()
        allocator.bind(env)
        allocation = allocator.allocate(np.zeros(4))
        assert allocation.sum() == 14
