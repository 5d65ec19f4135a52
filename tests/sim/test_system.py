"""Tests for the full system facade: windows, routing, metrics, drain."""

import numpy as np
import pytest

from repro.sim.microservice import STARTUP_DELAY_RANGE
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.workflows import build_msd_ensemble
from repro.workload import DeterministicArrivalProcess, PoissonArrivalProcess

from tests.conftest import make_msd_env, set_startup_delay


def make_system(seed=0, startup_delay_range=None, **kwargs):
    kwargs.setdefault("consumer_budget", 14)
    system = MicroserviceWorkflowSystem(
        build_msd_ensemble(), SystemConfig(**kwargs), seed=seed
    )
    if startup_delay_range is not None:
        set_startup_delay(system, startup_delay_range)
    return system


class TestConfig:
    def test_defaults_match_paper(self):
        config = SystemConfig()
        assert config.window_length == 30.0
        assert STARTUP_DELAY_RANGE == (5.0, 10.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(window_length=0)
        with pytest.raises(ValueError):
            SystemConfig(consumer_budget=0)
        with pytest.raises(ValueError):
            SystemConfig(scale_down_mode="other")

    @pytest.mark.parametrize("field, value", [
        ("window_length", float("inf")),
    ])
    def test_rejected_at_construction(self, field, value):
        """Accepted here, an endless window never failed."""
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})


class TestWorkflowRouting:
    def test_single_request_traverses_full_dag(self):
        system = make_system(startup_delay_range=(0.0, 0.0))
        system.apply_allocation([2, 2, 2, 2])
        request = system.submit("Type3")
        system.loop.run_until(200.0)
        assert request.completion_time is not None
        assert request.completed_tasks == {
            "Ingest",
            "Preprocess",
            "Segment",
            "Analyze",
        }
        assert system.conservation_ok()

    def test_response_time_includes_all_stages(self):
        system = make_system(startup_delay_range=(0.0, 0.0))
        system.apply_allocation([1, 1, 1, 1])
        request = system.submit("Type1")
        system.loop.run_until(500.0)
        # Type1 = Ingest -> Preprocess -> Segment: means 2 + 4 + 6 = 12 s.
        assert request.response_time() > 3.0

    def test_and_join_waits_for_all_predecessors(self):
        """Type3 forks after Preprocess; completion requires both branches."""
        system = make_system(startup_delay_range=(0.0, 0.0))
        system.apply_allocation([2, 2, 2, 0])  # Analyze starved
        request = system.submit("Type3")
        system.loop.run_until(300.0)
        assert request.completion_time is None
        assert "Segment" in request.completed_tasks
        system.apply_allocation([2, 2, 2, 2])
        system.loop.run_until(600.0)
        assert request.completion_time is not None


class TestWindows:
    def test_run_window_advances_clock(self):
        system = make_system()
        observation = system.run_window()
        assert system.loop.now == 30.0
        assert observation.index == 0
        assert system.window_index == 1

    def test_reward_is_eq1(self):
        system = make_system()
        system.inject_burst({"Type1": 5})
        observation = system.run_window()
        assert observation.reward == pytest.approx(
            1.0 - float(observation.wip.sum())
        )

    def test_an_observation_owns_its_window(self):
        """run_window hands its containers over; later windows build new
        ones and leave every earlier observation as it was returned."""
        system = make_system()
        PoissonArrivalProcess({"Type1": 0.5, "Type2": 0.3}).attach(system)
        system.apply_allocation([4, 4, 3, 3])
        system.inject_burst({"Type1": 10, "Type2": 5})
        fields = ("arrivals", "completions", "response_times",
                  "response_times_by_type", "task_completions",
                  "task_publishes")
        first = system.run_window()
        kept = {f: repr(getattr(first, f)) for f in fields}
        later = [system.run_window() for _ in range(5)]
        assert sum(o.total_completions for o in later) > 0
        assert {f: repr(getattr(first, f)) for f in fields} == kept
        for f in fields:
            assert all(getattr(o, f) is not getattr(first, f) for o in later)

    def test_arrivals_attributed_to_window(self):
        system = make_system()
        PoissonArrivalProcess({"Type1": 0.5}).attach(system)
        observation = system.run_window()
        # ~15 expected; loose bounds to stay robust across seeds.
        assert 3 <= observation.arrivals.get("Type1", 0) <= 35

    def test_task_publishes_include_bursts(self):
        system = make_system()
        system.inject_burst({"Type1": 10})
        observation = system.run_window()
        assert observation.task_publishes["Ingest"] == 10

    def test_wip_vector_matches_queue_depths(self):
        system = make_system()
        system.inject_burst({"Type1": 7})
        wip = system.wip_vector()
        assert wip[0] == 7  # all at Ingest, nothing processed yet
        assert wip.sum() == 7


class TestAllocationValidation:
    def test_wrong_shape_rejected(self):
        system = make_system()
        with pytest.raises(ValueError, match="shape"):
            system.apply_allocation([1, 2])

    def test_negative_rejected(self):
        system = make_system()
        with pytest.raises(ValueError, match="non-negative"):
            system.apply_allocation([1, -1, 1, 1])

    def test_fractional_rejected(self):
        system = make_system()
        with pytest.raises(ValueError, match="integral"):
            system.apply_allocation([1.5, 1, 1, 1])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        system = make_system()
        with pytest.raises(ValueError, match="integral and finite"):
            system.apply_allocation([bad, 1, 1, 1])
        assert system.current_allocation().sum() == 0

    def test_current_allocation_reflects_scaling(self):
        system = make_system()
        system.apply_allocation([3, 4, 5, 2])
        assert np.array_equal(system.current_allocation(), [3, 4, 5, 2])


class TestDrain:
    def test_drain_leaves_nothing_waiting(self):
        system = make_system()
        system.inject_burst({"Type1": 50, "Type2": 30})
        windows = system.drain(max_windows=40)
        services = system.microservices.values()
        assert all(ms.ready_count == 0 for ms in services)
        # What is left is in service, one request per busy consumer.
        assert float(system.wip_vector().sum()) <= sum(
            ms.busy_consumers for ms in services
        )
        assert 1 <= windows < 40
        assert system.conservation_ok()

    def test_drain_respects_max_windows(self):
        system = make_system()
        system.inject_burst({"Type1": 2000})
        windows = system.drain(max_windows=2)
        assert windows == 2  # gave up at the cap


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            env = make_msd_env(seed=seed)
            env.reset()
            wips = []
            for _ in range(5):
                wip, _, _ = env.step(env.uniform_allocation())
                wips.append(wip.copy())
            return np.stack(wips)

        assert np.array_equal(run(7), run(7))
        assert not np.array_equal(run(7), run(8))
