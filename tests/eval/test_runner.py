"""Tests for the evaluation runner and result series."""

import numpy as np
import pytest

from repro.baselines.static_alloc import UniformAllocator
from repro.eval.runner import (
    EvalResult,
    StepRecord,
    evaluate_allocator,
    make_env,
    run_scenario_comparison,
)
from repro.sim.system import SystemConfig
from repro.workflows import build_msd_ensemble
from repro.workload.bursts import BurstScenario

TINY_SCENARIO = BurstScenario(
    "tiny", {"Type1": 20, "Type2": 10, "Type3": 10}, {"Type1": 0.02}
)


class TestMakeEnv:
    def test_builds_env_with_arrivals(self):
        env = make_env(
            build_msd_ensemble(),
            config=SystemConfig(consumer_budget=14),
            seed=1,
            background_rates={"Type1": 0.5},
        )
        env.system.loop.run_until(100.0)
        assert env.system.invoker.submitted_total > 0

    def test_no_rates_no_arrivals(self):
        env = make_env(build_msd_ensemble(), seed=1)
        env.system.loop.run_until(100.0)
        assert env.system.invoker.submitted_total == 0


class TestEvaluateAllocator:
    def _run(self, steps=8):
        env = make_env(
            build_msd_ensemble(),
            config=SystemConfig(consumer_budget=14),
            seed=2,
            background_rates=dict(TINY_SCENARIO.background_rates),
        )
        return evaluate_allocator(UniformAllocator(), env, TINY_SCENARIO, steps)

    def test_records_one_per_step(self):
        result = self._run(steps=8)
        assert len(result.records) == 8
        assert [r.step for r in result.records] == list(range(8))

    def test_burst_is_visible_then_drains(self):
        result = self._run(steps=12)
        assert result.wip_series()[0] > 10  # burst present early
        assert result.wip_series()[-1] < result.wip_series()[0]

    def test_series_lengths_match(self):
        result = self._run(steps=5)
        assert len(result.response_time_series()) == 5
        assert len(result.reward_series()) == 5

    def test_aggregated_reward_is_sum(self):
        result = self._run(steps=5)
        assert result.aggregated_reward() == pytest.approx(
            sum(result.reward_series())
        )

    def test_mean_response_time_weighted(self):
        result = EvalResult("x", "y")
        result.records = [
            StepRecord(0, 0, 0, mean_response_time=10.0, completions=1,
                       allocation=np.zeros(1)),
            StepRecord(1, 0, 0, mean_response_time=20.0, completions=3,
                       allocation=np.zeros(1)),
        ]
        assert result.mean_response_time() == pytest.approx(
            (10 * 1 + 20 * 3) / 4
        )

    def test_mean_response_time_empty(self):
        assert EvalResult("x", "y").mean_response_time() == 0.0

    def test_per_type_series_present(self):
        result = self._run(steps=10)
        series = result.response_time_series_for("Type1")
        assert len(series) == 10
        assert any(value > 0 for value in series)

    def test_invalid_steps(self):
        env = make_env(build_msd_ensemble(), seed=2)
        with pytest.raises(ValueError):
            evaluate_allocator(UniformAllocator(), env, TINY_SCENARIO, 0)


class TestComparison:
    def test_same_arrivals_for_all_allocators(self):
        class RecordingUniform(UniformAllocator):
            def __init__(self, name):
                self.name = name

        results = run_scenario_comparison(
            build_msd_ensemble,
            [RecordingUniform("a"), RecordingUniform("b")],
            TINY_SCENARIO,
            steps=5,
            config=SystemConfig(consumer_budget=14),
            eval_seed=77,
        )
        # Identical allocator + identical seed => identical series.
        assert results["a"].wip_series() == results["b"].wip_series()
        assert results["a"].response_time_series() == (
            results["b"].response_time_series()
        )
