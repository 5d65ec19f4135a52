"""Tests for the evaluation runner and result series."""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    HpaAllocator,
    ProportionalToWipAllocator,
)
from repro.baselines.static_alloc import UniformAllocator
from repro.eval.experiments import dataset_preset, preset_env
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


#: sha256 of every record of one cell: the first burst of the dataset,
#: evaluation seed 1000, 30 windows.  Recorded at the commit before the
#: per-window glue dropped its small-array numpy calls; an optimisation
#: of the closed loop must leave every one of them unchanged.
RECORD_DIGESTS = {
    ("msd", "uniform"): "4a316f96b928cffd60c4a2ae47af6ec1adaa745daaa12addaf632481c9636436",
    ("msd", "wip"): "5d74506a0b8f99bae3a8c4e1c950033d4093f43fbe7dbb789da55a2a8219fc92",
    ("msd", "stream"): "6d3e611ec905f2c3d1a10da4444168947af83e5bad2e758c051c32f1638573ef",
    ("msd", "heft"): "551e773937be2dcd70b0de935ada1bf09400825a640b073504681cce019ec0e0",
    ("msd", "hpa"): "d7e1e09b301b833b1af5094f639b4bf4d7aa0eef4ab8265afd8a8173dbbabc91",
    ("ligo", "uniform"): "d736837721ca77e2cb5dc276f8dde7d136f318d605eaf564c085a8ef2454f79c",
    ("ligo", "wip"): "1f6193b110b27f06a86e624d2eae6552adfeba618f752ec8e8bd4267b150e24f",
    ("ligo", "stream"): "b6c3cf75db2a3b57f8c2c8fb382b42adc9d1e7dfe277b4cc90440649c91dc26b",
    ("ligo", "heft"): "f5554ae7e4f6c4964c4791e0660048861bbc965e841a6f98fb776b4b8ce2ad8c",
    ("ligo", "hpa"): "7b478591625d7cd1e90c9c9f8a95abd7762042931fadec4407659de70817a6b8",
}


def record_digest(result: EvalResult) -> str:
    """sha256 over each record's values, types and key order included.

    A float's ``repr`` round-trips, so equal digests mean equal bytes.
    """
    digest = hashlib.sha256()
    for r in result.records:
        digest.update(repr((
            r.reward,
            r.wip_sum,
            r.mean_response_time,
            r.completions,
            r.allocation.dtype.str,
            r.allocation.tolist(),
            list(r.response_by_type.items()),
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("dataset, allocator", sorted(RECORD_DIGESTS))
def test_evaluation_records_are_pinned(dataset, allocator):
    allocators = {
        "uniform": UniformAllocator,
        "wip": ProportionalToWipAllocator,
        "stream": DrsAllocator,
        "heft": HeftAllocator,
        "hpa": HpaAllocator,
    }
    scenario = dataset_preset(dataset)["bursts"][0]
    env = preset_env(
        dataset, seed=1000, background_rates=dict(scenario.background_rates)
    )
    result = evaluate_allocator(allocators[allocator](), env, scenario, 30)
    assert record_digest(result) == RECORD_DIGESTS[dataset, allocator]


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
