"""The single-pass DDPG update is byte-equal to the historical one.

See :mod:`tests.rl.reference_ddpg` for the reference.  Both agents act,
explore, store and sample through the same production code with the same
seed, so after N interleaved act/store/update steps any difference in a
weight can only come from the update arithmetic.
"""

import numpy as np
import pytest

from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.telemetry import MemorySink, Tracer
from repro.utils.rng import spawn_rngs

from tests.rl.reference_ddpg import ReferenceDDPGAgent

STATE_DIM, ACTION_DIM, UPDATES = 4, 3, 200


def build(cls, exploration, entropy_weight, traced):
    config = DDPGConfig(
        hidden_sizes=(24, 16),
        batch_size=16,
        buffer_capacity=256,
        exploration=exploration,
        entropy_weight=entropy_weight,
        perturb_interval=7,
    )
    tracer = Tracer(MemorySink()) if traced else None
    agent = cls(
        STATE_DIM,
        ACTION_DIM,
        config=config,
        rng=spawn_rngs(314, ["equivalence"])["equivalence"],
        tracer=tracer,
    )
    data = np.random.default_rng(2718)
    agent.store_batch(
        data.gamma(2.0, 40.0, size=(64, STATE_DIM)),
        data.dirichlet(np.ones(ACTION_DIM), size=64),
        -data.gamma(2.0, 300.0, size=64),
        data.gamma(2.0, 40.0, size=(64, STATE_DIM)),
    )
    return agent


def run(agent):
    """Interleave exploring actions, stores and updates; returns the
    ``(critic_loss, mean_q)`` history."""
    world = np.random.default_rng(99)
    state = world.gamma(2.0, 40.0, size=STATE_DIM)
    history = []
    for _ in range(UPDATES):
        action = agent.act(state, explore=True)
        next_state = np.maximum(state - 30.0 * action.sum(), 0.0) + world.gamma(
            2.0, 10.0, size=STATE_DIM
        )
        agent.store(state, action, -float(next_state.sum()), next_state)
        state = next_state
        history.append(agent.update())
    return history


def arenas(agent):
    return [
        network.get_flat().tobytes()
        for network in (
            agent.actor.network,
            agent.actor.target_network,
            agent.critic.network,
            agent.critic.target_network,
        )
    ]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.02])
@pytest.mark.parametrize("exploration", ["parameter", "action-gaussian"])
def test_weights_byte_equal_to_reference(exploration, entropy_weight, traced):
    agent = build(DDPGAgent, exploration, entropy_weight, traced)
    reference = build(ReferenceDDPGAgent, exploration, entropy_weight, traced)
    history = run(agent)
    ref_history = run(reference)

    assert arenas(agent) == arenas(reference)
    for network, mirror in reference.networks():
        assert network.get_flat().tobytes() == mirror.get_flat().tobytes()
    assert [loss for loss, _ in history] == [loss for loss, _ in ref_history]
    assert agent.replay.state_dict()["actions"].tobytes() == (
        reference.replay.state_dict()["actions"].tobytes()
    )
    assert agent.param_noise.sigma == reference.param_noise.sigma

    if traced:
        records = agent.tracer.sink.records
        ref_records = reference.tracer.sink.records
        assert len(records) == len(ref_records) > 0

        def without_mean_q_value(record):
            if record.get("name") == "ddpg/mean_q":
                return {k: v for k, v in record.items() if k != "value"}
            return record

        assert [without_mean_q_value(r) for r in records] == [
            without_mean_q_value(r) for r in ref_records
        ]


def test_mean_q_is_policy_q_before_the_actor_step():
    """The one intended observable change: mean_q = mean Q(s, mu(s)) under
    the just-trained critic and the not-yet-stepped actor."""
    agent = build(DDPGAgent, "parameter", 0.02, traced=False)
    probe = build(DDPGAgent, "parameter", 0.02, traced=False)
    batch = probe.replay.sample(probe.config.batch_size, probe.rng)
    states = batch["states"]

    _, mean_q = agent.update()

    # Replay the critic half of the update on the twin, then measure.
    actor, critic = probe.actor, probe.critic
    features = critic.normalize_states(states)
    next_features = critic.normalize_states(batch["next_states"])
    next_actions = actor.actions(next_features, actor.target_network)
    next_q = critic.q_features(next_features, next_actions, target=True)
    critic.train_features(
        features, batch["actions"], batch["rewards"] + probe.config.gamma * next_q
    )
    expected = float(
        np.mean(critic.q_features(features, actor.act(states)))
    )
    assert mean_q == expected


def test_policy_step_leaves_critic_weight_gradients_alone():
    agent = build(DDPGAgent, "parameter", 0.02, traced=False)
    batch = agent.replay.sample(16, agent.rng)
    features = agent.critic.normalize_states(batch["states"])
    agent.critic.train_features(features, batch["actions"], batch["rewards"])
    before = agent.critic.network.grads.copy()
    agent.actor.policy_gradient_step(
        features,
        lambda actions: agent.critic.q_and_action_gradient(features, actions)[1],
    )
    assert agent.critic.network.grads.tobytes() == before.tobytes()


def test_refresh_perturbation_never_aliases_the_actor():
    agent = build(DDPGAgent, "parameter", 0.02, traced=False)
    agent.refresh_perturbation()
    perturbed = agent._perturbed_network
    source = agent.actor.network
    assert not np.shares_memory(perturbed.params, source.params)
    for layer, twin in zip(source.layers, perturbed.layers):
        assert not np.shares_memory(layer.weights, twin.weights)
        assert np.shares_memory(twin.weights, perturbed.params)
    clean = source.get_flat()
    perturbed.params += 1.0
    assert source.get_flat().tobytes() == clean.tobytes()
    for target, live in (
        (agent.actor.target_network, agent.actor.network),
        (agent.critic.target_network, agent.critic.network),
    ):
        assert not np.shares_memory(target.params, live.params)
