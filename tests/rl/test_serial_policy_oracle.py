"""Serial is a batch of one: today's ``(K, ...)`` bodies at K=1 against the
pre-change serial bodies kept in tests/rl/reference_serial_policy.py.

Same seeds on both sides; every step must give the same bytes, and each
run must end with the same counters and the same RNG state.
"""

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.refinement import RefinedModel
from repro.rl import ddpg, distributed
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.noise import project_to_simplex
from repro.utils.rng import RngStream

from tests.rl import reference_serial_policy as reference

MODES = ["parameter", "action-gaussian"]


def _stream(seed, name="oracle"):
    return RngStream(name, np.random.SeedSequence(seed))


def _rng_state(stream):
    return (
        stream.generator.bit_generator.state,
        stream._seed_sequence.n_children_spawned,
    )


@pytest.fixture(autouse=True)
def short_schedule(monkeypatch):
    """Wide action noise and a refresh every 7 acts: a short run sees
    many violations and perturbations."""
    monkeypatch.setattr(ddpg, "ACTION_NOISE_SIGMA", 0.4)
    monkeypatch.setattr(ddpg, "PERTURB_INTERVAL", 7)


def _agent(cls, exploration, dim=3, hidden_sizes=(16, 16), seed=5):
    config = DDPGConfig(
        hidden_sizes=hidden_sizes, batch_size=8, exploration=exploration
    )
    return cls(dim, dim, config=config, rng=_stream(seed, "agent"))


def _state(rng):
    """WIP-like states: zeros, background and burst levels."""
    scale = rng.choice([0.0, 2.0, 40.0, 400.0])
    return np.round(rng.exponential(1.0, size=3) * scale, 1)


@pytest.mark.parametrize("exploration", MODES)
def test_act_at_k1_matches_the_serial_agent(exploration):
    agent = _agent(DDPGAgent, exploration)
    oracle = _agent(reference.ReferenceDDPGAgent, exploration)
    rng = _stream(11)
    state = _state(rng)
    for step in range(320):
        explore = step % 11 != 10  # a greedy act now and then
        if step % 3 == 0:
            action = agent.act_batch(state[np.newaxis], explore=explore)[0]
        else:
            action = agent.act(state, explore=explore)
        expected = oracle.act(state, explore=explore)
        assert action.tobytes() == expected.tobytes(), step
        next_state = _state(rng)
        # Replay feeds sigma adaptation at every perturbation refresh.
        for side in (agent, oracle):
            side.store(state, action, -float(next_state.sum()), next_state)
        state = next_state
    for name in (
        "exploration_actions", "constraint_violations", "_acts_since_perturb",
    ):
        assert getattr(agent, name) == getattr(oracle, name), name
    assert _rng_state(agent.rng) == _rng_state(oracle.rng)
    assert agent.param_noise.sigma == oracle.param_noise.sigma
    if exploration.startswith("action"):
        assert agent.constraint_violations > 0


def _trained_model():
    rng = _stream(3, "data")
    dataset = TransitionDataset(state_dim=3, action_dim=3)
    for _ in range(60):
        state = rng.uniform(0.0, 20.0, size=3)
        action = rng.uniform(0.0, 3.0, size=3)
        dataset.add(state, action, np.maximum(state - action, 0.0))
    model = EnvironmentModel(3, 3, hidden_sizes=(8,), rng=_stream(4, "model"))
    model.fit(dataset, epochs=2, batch_size=16)
    return model


def test_refined_predict_at_k1_matches_the_serial_model():
    model = _trained_model()
    tau, omega = np.array([5.0, 2.0, 8.0]), np.array([9.0, 2.0, 12.0])
    refined = RefinedModel(model, tau, omega, rng=_stream(6, "refine"))
    oracle = reference.ReferenceRefinedModel(
        model, tau, omega, rng=_stream(6, "refine")
    )
    rng = _stream(12)
    for step in range(300):
        # Each dimension independently below or above its tau (j=1 has a
        # degenerate band and never lends).
        state = np.where(
            rng.uniform(size=3) < 0.5,
            rng.uniform(0.0, tau),
            rng.uniform(tau, 2 * omega),
        )
        action = rng.uniform(0.0, 3.0, size=3)
        if step % 2:
            out = refined.predict_batch(state[np.newaxis], action[np.newaxis])[0]
        else:
            out = refined.predict(state, action)
        assert out.tobytes() == oracle.predict(state, action).tobytes(), step
    assert refined.lend_count == oracle.lend_count > 0
    assert refined.lend_delta_total == oracle.lend_delta_total
    assert _rng_state(refined._rng) == _rng_state(oracle._rng)


def test_projection_rows_match_the_serial_projection():
    rng = _stream(13)
    for dim in (1, 2, 3, 5, 8):
        ties = rng.integers(-4, 5, size=(64, dim)) / 4.0  # many equal entries
        wide = rng.normal(0.0, 1.0, size=(64, dim)) * rng.choice(
            [1e-3, 1.0, 1e3], size=(64, 1)
        )
        for block in (ties, wide, np.ones((3, dim)) / dim):
            projected = project_to_simplex(block)
            for k, row in enumerate(block):
                expected = reference.project_to_simplex(row)
                assert projected[k].tobytes() == expected.tobytes()
                one = project_to_simplex(row[np.newaxis])[0]
                assert one.tobytes() == expected.tobytes()


def _collect_spec(agent):
    return {
        "episode": 0,
        "lane": 0,
        "steps": 40,
        "seed": 17,
        "env_seed": 19,
        "random_fraction": 0.25,
        "env_factory": "repro.eval.experiments:build_training_env",
        "env_params": (("dataset", "msd"),),
        "burst_probability": 1.0,
        "burst_scale": 10.0,
        "policy": distributed.policy_payload(agent),
    }


def _assert_same_block(block, expected):
    assert block.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert block[key].tobytes() == value.tobytes(), key
        else:
            assert block[key] == value, key


@pytest.mark.parametrize("exploration", MODES)
def test_collect_episode_matches_the_serial_worker(exploration):
    agent = _agent(DDPGAgent, exploration, dim=4)  # MSD's four services
    spec = _collect_spec(agent)
    _assert_same_block(
        distributed.run_collect_episode(spec), reference.run_collect_episode(spec)
    )


@pytest.mark.parametrize("exploration", MODES)
def test_reused_acting_network_matches_a_fresh_actor_per_episode(exploration):
    # One process keeps one acting network per policy shape; episodes on
    # payloads A, B, A must each match an actor built for that episode.
    for hidden_sizes in ((16, 16), (24,)):
        a, b = (
            _agent(DDPGAgent, exploration, 4, hidden_sizes, seed)
            for seed in (5, 6)
        )
        # Fresh actors sit near the uniform allocation; B acts differently.
        b.actor.network.params += _stream(7).normal(
            0.0, 0.5, size=b.actor.network.params.shape
        )
        for agent in (a, b, a):
            spec = _collect_spec(agent)
            _assert_same_block(
                distributed.run_collect_episode(spec),
                reference.run_collect_episode(spec),
            )
