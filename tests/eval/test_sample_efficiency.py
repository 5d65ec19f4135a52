"""Tests for the sample-efficiency experiment harness (tiny scale)."""

import numpy as np
import pytest

from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.eval.sample_efficiency import (
    SampleEfficiencyResult,
    sample_efficiency_curves,
)
from repro.rl.ddpg import DDPGConfig

from tests.conftest import make_msd_env


def tiny_config():
    return MirasConfig(
        model=ModelConfig(hidden_sizes=(8,), epochs=3),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
            rollout_length=4,
            rollouts_per_iteration=2,
            patience=2,
        ),
        steps_per_iteration=20,
        reset_interval=10,
        iterations=2,
        eval_steps=3,
    )


class TestResultContainer:
    def test_curve_accessors(self):
        result = SampleEfficiencyResult(
            curves={"a": [(10, -5.0), (20, -3.0)]},
            reset_windows={"a": [1, 4]},
        )
        assert result.interactions("a") == [10, 20]
        assert result.real_windows("a") == [11, 24]
        assert result.rewards("a") == [-5.0, -3.0]


class TestCurves:
    def test_produces_aligned_checkpoints(self):
        result = sample_efficiency_curves(
            lambda seed: make_msd_env(seed=seed),
            tiny_config(),
            checkpoints=2,
            eval_steps=3,
            eval_burst_scale=2.0,
            seed=7,
        )
        assert set(result.curves) == {"miras", "modelfree"}
        assert result.interactions("miras") == result.interactions("modelfree")
        assert len(result.interactions("miras")) == 2
        for name in result.curves:
            assert all(np.isfinite(r) for r in result.rewards(name))
            resets = result.reset_windows[name]
            assert len(resets) == 2
            assert 0 <= resets[0] <= resets[1]

    def test_invalid_checkpoints(self):
        with pytest.raises(ValueError):
            sample_efficiency_curves(
                lambda seed: make_msd_env(seed=seed),
                tiny_config(),
                checkpoints=0,
            )
