"""Batched ``train_policy`` equivalence: the K=1 engine must reproduce
the historical per-step serial loop *bitwise* — same actor and critic
weights, same replay contents, same perturbation schedule.

``_reference_serial_train_policy`` below is the pre-batching loop kept
verbatim as an executable specification; if ``MirasAgent.train_policy``
ever drifts from it at ``rollout_batch=1``, these tests fail at the
byte level rather than tolerance level.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.telemetry.profile import PhaseProfiler

from tests.conftest import make_msd_env
from tests.core.reference_model_env import ModelEnv
from tests.core.test_agent import tiny_config


def _prepared_agent(seed=3, **config_overrides):
    config = tiny_config(**config_overrides)
    agent = MirasAgent(make_msd_env(seed=seed), config, seed=seed)
    agent.collect_real_interactions(
        agent.config.steps_per_iteration, random_fraction=1.0
    )
    agent.train_model()
    return agent


def _reference_serial_train_policy(agent):
    """The pre-batching ``train_policy`` loop (historical implementation)."""
    cfg = agent.config.policy
    model_env = ModelEnv(
        agent.refined_model,
        agent.dataset,
        consumer_budget=agent.env.consumer_budget,
        rollout_length=cfg.rollout_length,
        rng=agent._rngs["model-env"].fork(f"n{len(agent.dataset)}"),
    )
    returns = []
    best_return = -np.inf
    stale = 0
    rollouts_run = 0
    for _ in range(cfg.rollouts_per_iteration):
        state = model_env.reset()
        agent.ddpg.refresh_perturbation()
        episode_return = 0.0
        done = False
        while not done:
            simplex = agent.ddpg.act(state, explore=True)
            executed = model_env.allocation_from_simplex(simplex)
            next_state, reward, done = model_env.step(executed)
            agent.ddpg.store(
                state, executed / agent.env.consumer_budget, reward, next_state
            )
            if len(agent.ddpg.replay) >= cfg.ddpg.batch_size:
                agent.ddpg.update_many(cfg.updates_per_step)
            state = next_state
            episode_return += reward
        returns.append(episode_return)
        rollouts_run += 1
        if episode_return > best_return + 1e-9:
            best_return = episode_return
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    tail = returns[-min(5, len(returns)):]
    return rollouts_run, float(np.mean(tail))


class TestBatchOneMatchesSerial:
    def test_weights_and_returns_bitwise_equal(self):
        batched = _prepared_agent(seed=3)
        serial = _prepared_agent(seed=3)
        result_batched = batched.train_policy()
        result_serial = _reference_serial_train_policy(serial)
        assert result_batched == result_serial
        assert (
            batched.ddpg.actor.network.get_flat().tobytes()
            == serial.ddpg.actor.network.get_flat().tobytes()
        )
        assert (
            batched.ddpg.critic.network.get_flat().tobytes()
            == serial.ddpg.critic.network.get_flat().tobytes()
        )
        assert len(batched.ddpg.replay) == len(serial.ddpg.replay)
        assert batched.ddpg._perturbs_done == serial.ddpg._perturbs_done

    def test_replay_contents_bitwise_equal(self):
        batched = _prepared_agent(seed=8)
        serial = _prepared_agent(seed=8)
        batched.train_policy()
        _reference_serial_train_policy(serial)
        for attr in ("_states", "_actions", "_rewards", "_next_states"):
            assert (
                getattr(batched.ddpg.replay, attr).tobytes()
                == getattr(serial.ddpg.replay, attr).tobytes()
            )


class TestLargerBatches:
    def test_k4_runs_and_reports_finite_returns(self):
        agent = _prepared_agent(seed=5)
        agent.config = dataclasses.replace(
            agent.config,
            policy=dataclasses.replace(
                agent.config.policy,
                rollout_batch=4,
                rollouts_per_iteration=6,
            ),
        )
        rollouts, mean_return = agent.train_policy()
        assert 1 <= rollouts <= 6
        assert np.isfinite(mean_return)

    def test_k_larger_than_remaining_rollouts_is_clamped(self):
        agent = _prepared_agent(seed=6)
        agent.config = dataclasses.replace(
            agent.config,
            policy=dataclasses.replace(
                agent.config.policy,
                rollout_batch=8,
                rollouts_per_iteration=3,
                patience=10,
            ),
        )
        rollouts, _ = agent.train_policy()
        assert rollouts == 3

    def test_profiler_records_batched_phases(self):
        agent = _prepared_agent(seed=7)
        with PhaseProfiler() as profiler:
            agent.train_policy()
        policy_node = profiler.root.children["core.train_policy"]
        step_node = policy_node.children.get("core.model_env_step")
        assert step_node is not None
        assert step_node.calls >= 1
        predict_node = step_node.children.get("core.predict_batch")
        assert predict_node is not None
        assert predict_node.calls >= 1
