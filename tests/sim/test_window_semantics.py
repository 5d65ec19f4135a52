"""Window-boundary semantics: what the controller can and cannot see."""

import numpy as np
import pytest

from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.workflows import build_msd_ensemble

from tests.conftest import set_startup_delay


def make_system(**kwargs):
    kwargs.setdefault("consumer_budget", 14)
    return set_startup_delay(MicroserviceWorkflowSystem(
        build_msd_ensemble(), SystemConfig(**kwargs), seed=2
    ), (0.0, 0.0))


class TestWindowBoundaries:
    def test_observation_times_are_contiguous(self):
        system = make_system()
        first = system.run_window()
        second = system.run_window()
        assert first.end_time == second.start_time
        assert second.end_time - second.start_time == 30.0

    def test_completions_attributed_to_their_window(self):
        system = make_system()
        system.apply_allocation([4, 4, 3, 3])
        system.submit("Type1")  # ~12 s of service time: finishes in window 0
        first = system.run_window()
        second = system.run_window()
        assert first.completions.get("Type1", 0) == 1
        assert second.completions.get("Type1", 0) == 0

    def test_multi_window_workflow_counted_once(self):
        # One consumer everywhere: Type3 (4 tasks, ~17 s + queueing) may
        # span windows, but its completion is recorded exactly once.
        system = make_system(window_length=5.0)
        system.apply_allocation([1, 1, 1, 1])
        system.submit("Type3")
        total = 0
        for _ in range(30):
            observation = system.run_window()
            total += observation.completions.get("Type3", 0)
        assert total == 1

    def test_response_times_by_type_partition_overall(self):
        system = make_system()
        system.apply_allocation([4, 4, 3, 3])
        system.inject_burst({"Type1": 5, "Type2": 5})
        for _ in range(5):
            observation = system.run_window()
            merged = [
                t
                for times in observation.response_times_by_type.values()
                for t in times
            ]
            assert sorted(merged) == sorted(observation.response_times)

    def test_window_index_advances(self):
        system = make_system()
        assert system.run_window().index == 0
        assert system.run_window().index == 1
        assert system.window_index == 2

    def test_allocation_snapshot_in_observation(self):
        system = make_system()
        system.apply_allocation([5, 4, 3, 2])
        observation = system.run_window()
        assert np.array_equal(observation.allocation, [5, 4, 3, 2])
