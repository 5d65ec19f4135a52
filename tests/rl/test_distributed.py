"""Unit tests for the distributed actor/learner collection engine."""

import numpy as np
import pytest

import repro.utils.pool as pool_mod
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.distributed import (
    COLLECT_MODES,
    DistributedCollector,
    EnvSpec,
    TransitionBlock,
    episode_plan,
    policy_payload,
    run_collect_episode,
)
from repro.utils.pool import resolve_workers
from repro.utils.rng import RngStream

ENV_FACTORY = "repro.eval.experiments:build_training_env"


def make_spec(**params):
    return EnvSpec.make(ENV_FACTORY, **params)


def make_episode_spec(episode=0, lane=0, steps=4, seed=123, env_seed=456,
                      random_fraction=1.0):
    """A self-contained worker spec (random actions — no policy needed)."""
    ddpg = DDPGAgent(
        4, 4, config=DDPGConfig(hidden_sizes=(8,), batch_size=4),
        rng=RngStream("t", np.random.SeedSequence(0)),
    )
    return {
        "episode": episode,
        "lane": lane,
        "steps": steps,
        "seed": seed,
        "env_seed": env_seed,
        "random_fraction": random_fraction,
        "env_factory": ENV_FACTORY,
        "env_params": (("dataset", "msd"),),
        "burst_probability": 0.5,
        "burst_scale": 5.0,
        "policy": policy_payload(ddpg),
    }


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_auto_detects_cpu_count(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 6)
        assert resolve_workers(0) == 6

    def test_unknown_cpu_count_falls_back_to_one(self, monkeypatch):
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-1)


class TestEnvSpec:
    def test_requires_module_colon_callable(self):
        with pytest.raises(ValueError, match="module:callable"):
            EnvSpec("not_a_path")

    def test_unknown_attribute_rejected(self):
        spec = EnvSpec("repro.eval.experiments:no_such_factory")
        with pytest.raises(ValueError, match="no attribute"):
            spec.build(seed=0)

    def test_params_are_sorted_and_hashable(self):
        spec = make_spec(dataset="msd")
        assert spec.params == (("dataset", "msd"),)
        hash(spec)  # frozen dataclass over hashable fields

    def test_builds_a_working_environment(self):
        env = make_spec(dataset="msd").build(seed=3)
        state = env.reset()
        assert state.shape == (env.state_dim,)

    def test_same_seed_builds_identical_replicas(self):
        spec = make_spec(dataset="msd")
        a, b = spec.build(seed=11), spec.build(seed=11)
        assert np.array_equal(a.reset(), b.reset())


class TestEpisodePlan:
    def test_slices_match_serial_reset_blocks(self):
        plan = episode_plan(60, 25, lanes=4, root_seed=0)
        assert [t.steps for t in plan] == [25, 25, 10]
        assert [t.episode for t in plan] == [0, 1, 2]

    def test_lane_is_round_robin_over_fixed_width(self):
        plan = episode_plan(150, 25, lanes=4, root_seed=0)
        assert [t.lane for t in plan] == [0, 1, 2, 3, 0, 1]

    def test_first_episode_offsets_indices_and_lanes(self):
        plan = episode_plan(50, 25, lanes=4, root_seed=0, first_episode=3)
        assert [t.episode for t in plan] == [3, 4]
        assert [t.lane for t in plan] == [3, 0]

    def test_seeds_are_label_derived_and_stable(self):
        a = episode_plan(100, 25, lanes=4, root_seed=9)
        b = episode_plan(100, 25, lanes=4, root_seed=9)
        assert [(t.seed, t.env_seed) for t in a] == [
            (t.seed, t.env_seed) for t in b
        ]
        # env stream differs from the exploration stream, and episodes
        # never share seeds.
        seeds = [t.seed for t in a] + [t.env_seed for t in a]
        assert len(set(seeds)) == len(seeds)

    def test_continuation_equals_one_long_plan(self):
        """Two iterations' plans == one plan over the combined steps —
        the property that makes per-iteration collection calls
        indistinguishable from a single longer schedule."""
        combined = episode_plan(120, 25, lanes=4, root_seed=5)
        first = episode_plan(50, 25, lanes=4, root_seed=5)
        rest = episode_plan(
            70, 25, lanes=4, root_seed=5, first_episode=len(first)
        )
        assert first + rest == combined

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            episode_plan(0, 25, lanes=4, root_seed=0)
        with pytest.raises(ValueError):
            episode_plan(10, 25, lanes=0, root_seed=0)


def block(episode, steps=1):
    n = steps
    return TransitionBlock(
        episode=episode, lane=episode % 4, steps=n,
        states=np.zeros((n, 2)), executed=np.zeros((n, 2), dtype=np.int64),
        rewards=np.zeros(n), next_states=np.zeros((n, 2)),
        episode_return=0.0, sim_time_end=0.0,
    )


class TestRunCollectEpisode:
    def test_same_spec_reproduces_the_block_bitwise(self):
        a = run_collect_episode(make_episode_spec())
        b = run_collect_episode(make_episode_spec())
        for key in ("states", "executed", "rewards", "next_states"):
            assert np.array_equal(a[key], b[key]), key
        assert a["episode_return"] == b["episode_return"]
        assert a["sim_time_end"] == b["sim_time_end"]

    def test_block_shapes_and_dtypes(self):
        out = run_collect_episode(make_episode_spec(steps=3))
        assert out["states"].shape == out["next_states"].shape == (3, 4)
        assert out["executed"].shape == (3, 4)
        assert out["executed"].dtype == np.int64
        assert out["rewards"].shape == (3,)

    def test_policy_actions_respect_budget(self):
        out = run_collect_episode(make_episode_spec(random_fraction=0.0))
        assert (out["executed"].sum(axis=1) <= 14).all()

    def test_different_seeds_diverge(self):
        a = run_collect_episode(make_episode_spec(seed=1, env_seed=10))
        b = run_collect_episode(make_episode_spec(seed=2, env_seed=20))
        assert not np.array_equal(a["states"], b["states"])


class TestDistributedCollector:
    def test_modes_registry(self):
        assert COLLECT_MODES == ("serial", "logical", "physical")

    def collect(self, workers, steps=40):
        ddpg = DDPGAgent(
            4, 4, config=DDPGConfig(hidden_sizes=(8,), batch_size=4),
            rng=RngStream("t", np.random.SeedSequence(0)),
        )
        collector = DistributedCollector(
            make_spec(dataset="msd"), workers=workers,
            burst_probability=0.3, burst_scale=5.0,
        )
        plan = episode_plan(steps, 10, lanes=4, root_seed=21)
        handed_over = []
        merged = collector.collect(
            policy_payload(ddpg), plan, random_fraction=0.5,
            on_block=handed_over.append,
        )
        return merged, handed_over

    def test_blocks_arrive_in_episode_order(self):
        merged, handed_over = self.collect(workers=2)
        assert [b.episode for b in merged] == [0, 1, 2, 3]
        assert [b.episode for b in handed_over] == [0, 1, 2, 3]

    def test_worker_count_never_changes_the_merge(self):
        in_process, _ = self.collect(workers=0)
        pooled, _ = self.collect(workers=2)
        assert len(in_process) == len(pooled)
        for a, b in zip(in_process, pooled):
            assert a.episode == b.episode and a.lane == b.lane
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.executed, b.executed)
            assert np.array_equal(a.rewards, b.rewards)
            assert np.array_equal(a.next_states, b.next_states)

    @pytest.mark.parametrize("lost, message", [
        (1, "got episode 2, expected 1"), (3, "gap at episode 3"),
    ])
    def test_a_lost_episode_is_a_hard_error(self, lost, message):
        """An executor that drops an episode: the prefix before it is
        handed over, then collect() raises instead of merging a gap."""
        collector = DistributedCollector(make_spec(dataset="msd"))
        collector._run_specs = lambda specs: (
            vars(block(spec["episode"]))
            for spec in specs if spec["episode"] != lost
        )
        handed_over = []
        with pytest.raises(RuntimeError, match=message):
            collector.collect(
                {}, episode_plan(40, 10, lanes=4, root_seed=21),
                on_block=handed_over.append,
            )
        assert [b.episode for b in handed_over] == list(range(lost))

    def test_empty_plan_is_a_noop(self):
        collector = DistributedCollector(make_spec(dataset="msd"))
        assert collector.collect({}, []) == []
