"""The serial/batch pair registry: every vectorised hot path is declared.

PR 5 introduced the batched twins (``predict_batch``, ``act_batch``,
``reward_eq1_batch``, ``sample_batch``, ``project_to_simplex_batch``) and
PR 7 the substrate ones; this suite pins that the set *registered* via
``@batched_pair`` is exactly :data:`EXPECTED_PAIRS`, that each entry
names the test proving its equivalence, and that the training-side
equivalences hold bit-for-bit with the same seed — exercised under the
sanitizer so the runtime batch-pair guard (dtype stability,
argument-mutation hashing) sees every call.
"""

import importlib

import numpy as np
import pytest

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.refinement import RefinedModel
from repro.core.reward import reward_eq1, reward_eq1_batch
from repro.analysis.sanitizer import sanitized
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.noise import (
    GaussianActionNoise,
    OrnsteinUhlenbeckNoise,
    project_to_simplex,
    project_to_simplex_batch,
)
from repro.utils.batchpairs import registered_pairs
from repro.utils.rng import RngStream

_HERE = f"{__name__}:TestSameSeedBitIdentity"
_SIM = "tests.sim.test_substrate_primitives"

#: Every registered pair, by registry key: the batch twin's name and the
#: ``module:Class.test`` that pins its row-k equality with the serial
#: twin.  The registry must equal this table exactly, so a new
#: ``@batched_pair`` cannot land without an equivalence test.
EXPECTED_PAIRS = {
    "repro.core.environment_model.EnvironmentModel.predict": (
        "predict_batch", f"{_HERE}.test_model_predict_pair"),
    "repro.core.refinement.RefinedModel.predict": (
        "predict_batch", f"{_HERE}.test_refined_predict_pair"),
    "repro.core.reward.reward_eq1": (
        "reward_eq1_batch", f"{_HERE}.test_reward_pair"),
    "repro.rl.actor.Actor.act": (
        "act_batch", f"{_HERE}.test_actor_act_pair"),
    "repro.rl.ddpg.DDPGAgent.act": (
        "act_batch", f"{_HERE}.test_agent_act_pair"),
    "repro.rl.noise.project_to_simplex": (
        "project_to_simplex_batch",
        f"{_HERE}.test_simplex_projection_pair"),
    "repro.rl.noise.GaussianActionNoise.sample": (
        "sample_batch", f"{_HERE}.test_gaussian_noise_pair"),
    "repro.rl.noise.OrnsteinUhlenbeckNoise.sample": (
        "sample_batch", f"{_HERE}.test_ou_noise_pair"),
    "repro.sim.requests.RequestPool.add_workflow": (
        "add_workflows",
        f"{_SIM}:TestRequestPool.test_add_workflows_matches_serial"),
    "repro.sim.requests.RequestPool.add_task": (
        "add_tasks",
        f"{_SIM}:TestRequestPool.test_add_tasks_matches_serial"),
    "repro.sim.microservice.BatchedMicroservice.publish": (
        "publish_many",
        f"{_SIM}:TestPublishMany.test_matches_serial_publishes"),
    "repro.sim.queueing.IndexFifo.push": (
        "push_many",
        f"{_SIM}:TestIndexFifo.test_push_many_matches_serial_pushes"),
}


def _stream(seed):
    return RngStream("pairs", np.random.SeedSequence(seed))


def _trained_model(seed=3):
    data_rng = _stream(seed)
    dataset = TransitionDataset(state_dim=3, action_dim=3)
    for _ in range(40):
        state = data_rng.uniform(0.0, 20.0, size=3)
        action = data_rng.uniform(0.0, 3.0, size=3)
        next_state = np.maximum(state - action, 0.0)
        dataset.add(state, action, next_state)
    model = EnvironmentModel(
        3, 3, hidden_sizes=(8,), rng=_stream(seed + 1)
    )
    model.fit(dataset, epochs=2, batch_size=16)
    return model


def _resolve(module_name, qualname):
    """``module.Class.attr`` looked up on the imported module, or None."""
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part, None)
    return target


class TestRegistryCompleteness:
    def test_registry_equals_the_expected_table(self):
        importlib.import_module("repro.sim")  # registers the sim-side pairs
        pairs = {
            key: pair for key, pair in registered_pairs().items()
            if key.startswith("repro.")  # other test modules register too
        }
        assert set(pairs) == set(EXPECTED_PAIRS)
        for key, (batch_name, _) in EXPECTED_PAIRS.items():
            assert pairs[key].batch_name == batch_name

    def test_every_pair_names_an_existing_equivalence_test(self):
        for key, (_, test_ref) in EXPECTED_PAIRS.items():
            module_name, _, qualname = test_ref.partition(":")
            assert callable(
                _resolve(module_name, qualname)
            ), f"{key}: no such test {test_ref}"

    def test_both_twins_of_every_pair_exist(self):
        """A typo in ``@batched_pair("serial")`` registers a pair whose
        serial twin is not there; nothing else would notice."""
        importlib.import_module("repro.sim")
        pairs = registered_pairs()
        for key in EXPECTED_PAIRS:
            pair = pairs[key]
            for qualname in (pair.serial_qualname, pair.batch_qualname):
                assert callable(
                    _resolve(pair.module, qualname)
                ), f"{key}: {pair.module}.{qualname} does not resolve"

    def test_registry_records_scope_correctly(self):
        pair = registered_pairs()["repro.core.reward.reward_eq1"]
        assert pair.module == "repro.core.reward"
        assert pair.serial_qualname == "reward_eq1"  # free function
        method = registered_pairs()[
            "repro.rl.actor.Actor.act"
        ]
        assert method.serial_qualname == "Actor.act"

    def test_decorated_functions_carry_pair_metadata(self):
        assert (
            reward_eq1_batch.__repro_batch_pair__.serial_name == "reward_eq1"
        )
        assert (
            project_to_simplex_batch.__repro_batch_pair__.serial_name
            == "project_to_simplex"
        )


class TestSameSeedBitIdentity:
    """Row k of every batch call must equal the serial call bit-for-bit,
    with the runtime guard active on the batched side."""

    def test_reward_pair(self):
        wip = _stream(11).uniform(0.0, 0.2, size=(6, 3))
        with sanitized() as state:
            batched = reward_eq1_batch(wip)
            assert state.pair_calls["repro.core.reward.reward_eq1"] == 1
        for k, row in enumerate(wip):
            assert batched[k] == reward_eq1(row)

    def test_simplex_projection_pair(self):
        vectors = _stream(12).normal(size=(5, 4))
        with sanitized():
            batched = project_to_simplex_batch(vectors)
        for k, row in enumerate(vectors):
            assert project_to_simplex(row).tobytes() == batched[k].tobytes()

    def test_gaussian_noise_pair(self):
        noise = GaussianActionNoise(sigma=0.3)
        with sanitized():
            batched = noise.sample_batch(1, 3, _stream(13))
        serial = noise.sample(3, _stream(13))
        assert serial.tobytes() == batched[0].tobytes()

    def test_ou_noise_pair(self):
        serial_noise = OrnsteinUhlenbeckNoise(3, sigma=0.2)
        batched_noise = OrnsteinUhlenbeckNoise(3, sigma=0.2)
        a, b = _stream(14), _stream(14)
        for _ in range(4):  # OU carries state across calls
            serial = serial_noise.sample(3, a)
            with sanitized():
                batched = batched_noise.sample_batch(1, 3, b)
            assert serial.tobytes() == batched[0].tobytes()

    def test_model_predict_pair(self):
        model = _trained_model()
        rng = _stream(15)
        states = rng.uniform(0.0, 10.0, size=(4, 3))
        actions = rng.uniform(0.0, 2.0, size=(4, 3))
        with sanitized() as state:
            batched_one = model.predict_batch(states[:1], actions[:1])
            batched_all = model.predict_batch(states, actions)
            key = "repro.core.environment_model.EnvironmentModel.predict"
            assert state.pair_calls[key] == 2
        # K=1 is the bitwise contract (the batched rollout engine's
        # determinism rests on it); K>1 rows agree to fp tolerance only,
        # because BLAS may block a 4-row matmul differently.
        serial = model.predict(states[0], actions[0])
        assert serial.tobytes() == batched_one[0].tobytes()
        for k in range(len(states)):
            np.testing.assert_allclose(
                batched_all[k], model.predict(states[k], actions[k]),
                rtol=1e-12,
            )

    def test_refined_predict_pair(self):
        model = _trained_model(seed=5)
        states = _stream(16).uniform(0.0, 10.0, size=(3, 3))
        actions = _stream(17).uniform(0.0, 2.0, size=(3, 3))
        tau = np.full(3, 5.0)
        omega = np.full(3, 9.0)
        # Lend–Giveback draws from the refinement stream, so serial and
        # batched runs need twin models with identical streams.
        serial_model = RefinedModel(model, tau=tau, omega=omega, rng=_stream(18))
        batched_model = RefinedModel(model, tau=tau, omega=omega, rng=_stream(18))
        with sanitized():
            batched = batched_model.predict_batch(states[:1], actions[:1])
        serial = serial_model.predict(states[0], actions[0])
        assert serial.tobytes() == batched[0].tobytes()

    def test_agent_act_pair(self):
        agent = DDPGAgent(
            3, 3,
            config=DDPGConfig(hidden_sizes=(16, 16), batch_size=8),
            rng=_stream(19),
        )
        states = _stream(20).normal(size=(5, 3))
        with sanitized():
            batched = agent.act_batch(states, explore=False)
        for k, row in enumerate(states):
            serial = agent.act(row, explore=False)
            assert serial.tobytes() == batched[k].tobytes()

    def test_actor_act_pair(self):
        agent = DDPGAgent(
            3, 3,
            config=DDPGConfig(hidden_sizes=(8,), batch_size=8),
            rng=_stream(21),
        )
        states = _stream(22).normal(size=(4, 3))
        with sanitized() as state:
            batched = agent.actor.act_batch(states)
            assert state.pair_calls["repro.rl.actor.Actor.act"] == 1
        for k, row in enumerate(states):
            assert agent.actor.act(row).tobytes() == batched[k].tobytes()


class TestGuardedDtypeStability:
    def test_reward_batch_dtype_is_stable_across_calls(self):
        with sanitized():
            for seed in (30, 31):
                wip = _stream(seed).uniform(0.0, 0.2, size=(3, 3))
                out = reward_eq1_batch(wip)
                assert out.dtype == np.float64

    def test_ou_batch_rejects_k_above_one_through_the_guard(self):
        noise = OrnsteinUhlenbeckNoise(3, sigma=0.2)
        with sanitized():
            with pytest.raises(ValueError, match="rollout_batch"):
                noise.sample_batch(2, 3, _stream(32))
