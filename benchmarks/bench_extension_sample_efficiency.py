"""Extension — sample-efficiency learning curves (Sections I/III claim).

The paper argues model-based RL "achiev[es] much higher sample efficiency
than the model-free approaches" but only shows the endpoint (Figs. 7–8's
equal-budget comparison).  This bench plots the full learning curve:
policy quality (aggregated burst-episode reward) as a function of real
interactions consumed, for MIRAS and vanilla model-free DDPG.

Expected shape (asserted): at the first checkpoint — the low-interaction
regime the paper's argument is about — MIRAS's policy is clearly better
than the model-free agent's.  With several times more interactions the
model-free agent catches up, matching the paper's own concession that
"DDPG without predictive model could perform well when supplied with
sufficient training data".
"""

from benchmarks.conftest import emit, run_once
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.eval.experiments import dataset_preset
from repro.eval.reporting import format_table
from repro.eval.runner import make_env
from repro.eval.sample_efficiency import sample_efficiency_curves
from repro.rl.ddpg import DDPGConfig
from repro.sim.system import SystemConfig


def _env_factory(seed):
    preset = dataset_preset("msd")
    return make_env(
        preset["builder"](),
        config=SystemConfig(consumer_budget=preset["budget"]),
        seed=seed,
        background_rates=preset["rates"],
    )


def test_sample_efficiency_curves(benchmark):
    config = MirasConfig(
        model=ModelConfig(hidden_sizes=(20, 20, 20), epochs=30),
        policy=PolicyConfig(
            ddpg=DDPGConfig(
                hidden_sizes=(128, 128),
                batch_size=64,
                gamma=0.99,
                entropy_weight=0.005,
                actor_weight_decay=1e-4,
            ),
            rollout_length=25,
            rollouts_per_iteration=30,
            patience=8,
            updates_per_step=2,
        ),
        steps_per_iteration=400,
        reset_interval=25,
        iterations=4,
        eval_steps=20,
    )
    result = run_once(
        benchmark,
        sample_efficiency_curves,
        _env_factory,
        config,
        checkpoints=4,
        eval_steps=20,
        eval_burst_scale=15.0,
        seed=0,
    )

    emit()
    rows = [
        [
            interactions,
            result.rewards("miras")[i],
            result.real_windows("miras")[i],
            result.rewards("modelfree")[i],
            result.real_windows("modelfree")[i],
        ]
        for i, interactions in enumerate(result.interactions("miras"))
    ]
    emit(format_table(
        [
            "real interactions",
            "MIRAS eval reward",
            "MIRAS real windows (steps + resets)",
            "model-free eval reward",
            "model-free real windows (steps + resets)",
        ],
        rows,
        title="Sample efficiency: burst-episode reward vs real interactions "
              "(MSD)",
    ))

    # The sample-efficiency claim lives at the first checkpoint.
    assert result.rewards("miras")[0] > result.rewards("modelfree")[0], (
        result.curves
    )
