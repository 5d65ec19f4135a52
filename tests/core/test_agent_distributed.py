"""Agent-level determinism pins for distributed collection.

The ISSUE's acceptance property: a full ``iterate()`` pass in logical
mode is *byte* identical across ``collect_workers`` ∈ {1, 4} — traces,
iteration results, final actor weights, dataset, and replay buffer —
and physical mode agrees with logical.  Episode seeds derive from
(root seed, lane/episode labels), and blocks merge in episode order,
so neither the worker count nor process scheduling can leak into
training state.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.eval.experiments import build_training_env, preset_env
from repro.rl.ddpg import DDPGConfig
from repro.rl.distributed import EnvSpec
from repro.telemetry.sinks import MemorySink
from repro.telemetry.tracer import Tracer

ENV_SPEC = EnvSpec.make(
    "repro.eval.experiments:build_training_env", dataset="msd"
)


def small_config(mode, workers):
    return MirasConfig(
        model=ModelConfig(hidden_sizes=(8, 8), epochs=2),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
            rollout_length=4,
            rollouts_per_iteration=2,
            patience=2,
            collect_mode=mode,
            collect_workers=workers,
        ),
        steps_per_iteration=60,
        reset_interval=25,
        iterations=1,
        eval_steps=3,
    )


def run_training(mode, workers, traced=False):
    # The agent traces through its environment's system tracer.
    tracer = Tracer(MemorySink()) if traced else None
    env = preset_env("msd", 7, tracer=tracer)
    agent = MirasAgent(
        env,
        small_config(mode, workers),
        seed=7,
        env_spec=ENV_SPEC,
    )
    results = agent.iterate()
    return agent, results, tracer


def training_state(agent):
    """Every array that collection feeds, plus the trained weights."""
    d, replay = agent.dataset, agent.ddpg.replay
    return {
        "dataset_states": d._states[: len(d)].copy(),
        "dataset_actions": d._actions[: len(d)].copy(),
        "dataset_next": d._next_states[: len(d)].copy(),
        "replay": replay.state_dict(),
        "actor": agent.ddpg.actor.network.state_dict(),
    }


def assert_states_equal(a, b):
    for key in ("dataset_states", "dataset_actions", "dataset_next"):
        assert np.array_equal(a[key], b[key]), key
    for key, value in a["replay"].items():
        assert np.array_equal(value, b["replay"][key]), f"replay/{key}"
    for layer, params in a["actor"].items():
        for key, value in params.items():
            assert np.array_equal(
                value, b["actor"][layer][key]
            ), f"actor/{layer}/{key}"


class TestLogicalByteIdentity:
    def test_worker_count_is_invisible(self):
        """The tentpole pin: logical collect_workers ∈ {1, 4} agree."""
        agent_one, results_one, tracer_one = run_training(
            "logical", 1, traced=True
        )
        agent_four, results_four, tracer_four = run_training(
            "logical", 4, traced=True
        )
        assert results_one == results_four
        assert_states_equal(
            training_state(agent_one), training_state(agent_four)
        )
        assert tracer_one.sink.records == tracer_four.sink.records

    @pytest.mark.parametrize("collect_workers", [1, 2, 4])
    def test_physical_matches_logical(self, collect_workers):
        """Real process pools, the learner running its share, replay the
        same logical interleave."""
        agent_logical, results_logical, _ = run_training("logical", 1)
        agent_physical, results_physical, _ = run_training(
            "physical", collect_workers
        )
        assert results_physical == results_logical
        assert_states_equal(
            training_state(agent_physical), training_state(agent_logical)
        )


class TestCollectTelemetry:
    def test_span_collect_records_cover_every_episode(self):
        _, _, tracer = run_training("logical", 4, traced=True)
        spans = [
            r for r in tracer.sink.records if r["kind"] == "span.collect"
        ]
        # 60 steps at reset_interval 25 -> episodes of 25, 25, 10 steps.
        assert [s["episode"] for s in spans] == [0, 1, 2]
        assert [s["steps"] for s in spans] == [25, 25, 10]
        assert [s["lane"] for s in spans] == [0, 1, 2]
        for span in spans:
            assert {"reward", "sim_time", "t"} <= set(span)

    def test_episode_indices_continue_across_iterations(self):
        agent, _, tracer = run_training("logical", 2, traced=True)
        agent.iterate(iterations=1)
        spans = [
            r for r in tracer.sink.records if r["kind"] == "span.collect"
        ]
        assert [s["episode"] for s in spans] == [0, 1, 2, 3, 4, 5]

    def test_collect_lanes_is_the_interleave_width(self):
        config = small_config("logical", 1)
        config = replace(config, policy=replace(config.policy, collect_lanes=2))
        tracer = Tracer(MemorySink())
        agent = MirasAgent(
            preset_env("msd", 7, tracer=tracer), config, seed=7,
            env_spec=ENV_SPEC,
        )
        agent.collect_distributed(60)
        spans = [
            r for r in tracer.sink.records if r["kind"] == "span.collect"
        ]
        assert [s["lane"] for s in spans] == [0, 1, 0]


class TestGuards:
    def test_missing_env_spec_is_a_hard_error(self):
        env = build_training_env(seed=7)
        agent = MirasAgent(env, small_config("logical", 1), seed=7)
        with pytest.raises(RuntimeError, match="env_spec"):
            agent.collect_distributed(10)

    def test_serial_mode_needs_no_env_spec(self):
        env = build_training_env(seed=7)
        agent = MirasAgent(env, small_config("serial", 1), seed=7)
        agent.collect_real_interactions(10, random_fraction=1.0)
        assert len(agent.dataset) == 10
