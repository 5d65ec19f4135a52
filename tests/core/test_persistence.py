"""Tests for agent persistence (save/load roundtrips)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.core.persistence import (
    config_from_dict,
    config_to_dict,
    load_agent,
    save_agent,
)
from repro.rl.ddpg import PARAM_NOISE_SIGMA, DDPGConfig
from repro.rl.distributed import EnvSpec

from tests.conftest import make_ligo_env, make_msd_env


def small_config():
    return MirasConfig(
        model=ModelConfig(hidden_sizes=(8, 8), epochs=5),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(16, 16), batch_size=8),
            rollout_length=5,
            rollouts_per_iteration=3,
            patience=2,
        ),
        steps_per_iteration=30,
        reset_interval=10,
        iterations=1,
        eval_steps=4,
    )


def trained_agent(seed=41):
    agent = MirasAgent(make_msd_env(seed=seed), small_config(), seed=seed)
    agent.iterate()
    return agent


def edit_config(directory, edit):
    """Apply ``edit`` to the config inside a saved agent's archive."""
    path = directory / "agent.npz"
    with np.load(path) as archive:
        arrays = dict(archive)
    header = json.loads(arrays["header"].item())
    edit(header["config"])
    arrays["header"] = np.array(json.dumps(header))
    np.savez(path, **arrays)


class TestConfigRoundtrip:
    def test_default_config(self):
        config = MirasConfig()
        restored = config_from_dict(config_to_dict(config))
        assert config_to_dict(restored) == config_to_dict(config)

    def test_paper_presets(self):
        for preset in (MirasConfig.msd_paper(), MirasConfig.ligo_paper()):
            restored = config_from_dict(config_to_dict(preset))
            assert tuple(restored.model.hidden_sizes) == tuple(
                preset.model.hidden_sizes
            )
            assert restored.policy.rollout_length == preset.policy.rollout_length
            assert restored.steps_per_iteration == preset.steps_per_iteration


class TestAgentRoundtrip:
    def test_policy_outputs_preserved(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))

        for _ in range(5):
            state = np.abs(np.random.default_rng(0).normal(0, 50, 4))
            assert np.allclose(
                loaded.ddpg.act_greedy(state), agent.ddpg.act_greedy(state)
            )

    def test_dataset_and_model_preserved(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))
        assert len(loaded.dataset) == len(agent.dataset)
        state = np.array([10.0, 5.0, 3.0, 2.0])
        action = np.array([4.0, 4.0, 3.0, 3.0])
        assert np.allclose(
            loaded.model.predict(state, action),
            agent.model.predict(state, action),
        )
        assert loaded.refined_model is not None

    def test_results_preserved(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))
        assert len(loaded.results) == 1
        assert loaded.results[0].eval_reward == agent.results[0].eval_reward

    def test_dimension_mismatch_rejected(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        with pytest.raises(ValueError, match="state_dim"):
            load_agent(tmp_path / "agent", make_ligo_env(seed=99))

    def test_replay_buffer_round_trip_bit_exact(self, tmp_path):
        """Satellite pin: the saved replay buffer — contents, cursor,
        wraparound state — survives save/load bit-exactly."""
        agent = trained_agent()
        replay = agent.ddpg.replay
        assert len(replay) > 0
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))

        original = replay.state_dict()
        restored = loaded.ddpg.replay.state_dict()
        assert set(original) == set(restored)
        for key in original:
            assert np.array_equal(original[key], restored[key]), key

        # Identical draws from identical ring state.
        from repro.utils.rng import RngStream

        a = replay.sample(8, RngStream("s", np.random.SeedSequence(3)))
        b = loaded.ddpg.replay.sample(
            8, RngStream("s", np.random.SeedSequence(3))
        )
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_loaded_agent_can_continue_training(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=55))
        loaded.iterate(iterations=1)
        assert len(loaded.results) == 2

    def test_loaded_agent_refinement_reports_to_the_env_tracer(self, tmp_path):
        """The rebuilt RefinedModel must carry the traced env's tracer:
        every lend of a post-reload ``train_policy`` is counted."""
        from repro.eval.runner import make_env
        from repro.sim.system import SystemConfig
        from repro.telemetry import MemorySink, Tracer
        from repro.workflows import build_msd_ensemble

        save_agent(tmp_path / "agent", trained_agent())
        tracer = Tracer(MemorySink())
        env = make_env(
            build_msd_ensemble(), SystemConfig(consumer_budget=14),
            seed=55, tracer=tracer,
        )
        loaded = load_agent(tmp_path / "agent", env)
        loaded.train_policy()
        assert loaded.refined_model.lend_count > 0
        assert (
            tracer.counters.get("refinement/lends")
            == loaded.refined_model.lend_count
        )

    def test_optimizer_state_round_trip_bit_exact(self, tmp_path):
        """A reloaded agent's next gradient step equals the never-saved
        agent's, byte for byte, on all three optimised networks."""
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))

        def step_counts(a):
            owners = (a.model, a.ddpg.actor, a.ddpg.critic)
            return [owner.optimizer.iterations for owner in owners]

        assert min(step_counts(agent)) > 0
        assert step_counts(loaded) == step_counts(agent)

        data = np.random.default_rng(8)
        states = data.gamma(2.0, 30.0, size=(8, 4))
        actions = data.dirichlet(np.ones(4), size=8)
        targets = -data.gamma(2.0, 200.0, size=(8, 1))
        dq_da = data.normal(size=(8, 4))
        model_x = data.normal(size=(8, agent.model.network.layer_sizes[0]))
        model_y = data.normal(size=(8, agent.model.network.layer_sizes[-1]))
        for twin in (agent, loaded):
            critic, actor = twin.ddpg.critic, twin.ddpg.actor
            critic.train_features(critic.normalize_states(states), actions, targets)
            actor.policy_gradient_step(actor.normalize(states), lambda _: dq_da)
            twin.model.network.train_batch(
                model_x, model_y, optimizer=twin.model.optimizer,
                loss=twin.model.loss,
            )
        for pick in (
            lambda a: a.ddpg.critic.network,
            lambda a: a.ddpg.actor.network,
            lambda a: a.model.network,
        ):
            assert pick(loaded).get_flat().tobytes() == (
                pick(agent).get_flat().tobytes()
            )

    def test_untrained_agent_dimension_mismatch_rejected(self, tmp_path):
        agent = MirasAgent(make_msd_env(seed=3), small_config(), seed=3)
        assert len(agent.dataset) == 0
        save_agent(tmp_path / "agent", agent)
        with pytest.raises(ValueError, match="state_dim"):
            load_agent(tmp_path / "agent", make_ligo_env(seed=99))

    def test_directory_without_the_archive_is_rejected(self, tmp_path):
        """A directory of the earlier one-file-per-part layout holds no
        ``agent.npz``; loading it names the file it looked for."""
        saved = tmp_path / "agent"
        saved.mkdir()
        for name in ("config.json", "actor.npz", "replay.npz"):
            (saved / name).write_bytes(b"")
        with pytest.raises(FileNotFoundError, match="agent.npz"):
            load_agent(saved, make_msd_env(seed=99))

    def test_every_save_leaves_only_the_archive(self, tmp_path):
        target = tmp_path / "agent"
        for seed in (1, 2):
            save_agent(
                target, MirasAgent(make_msd_env(seed=seed), small_config(), seed=seed)
            )
        assert [path.name for path in tmp_path.iterdir()] == ["agent"]
        assert [path.name for path in target.iterdir()] == ["agent.npz"]

    def test_untrained_agent_saved_over_a_trained_checkpoint(self, tmp_path):
        """The second save replaces the whole checkpoint: nothing of the
        trained agent — its dataset above all — outlives it."""
        target = save_agent(tmp_path / "agent", trained_agent(seed=0))
        untrained = MirasAgent(make_msd_env(seed=1), small_config(), seed=1)
        save_agent(target, untrained)
        loaded = load_agent(target, make_msd_env(seed=99))
        assert len(loaded.dataset) == 0
        assert loaded.refined_model is None
        assert loaded.seed == 1
        assert loaded.results == []
        assert len(loaded.ddpg.replay) == 0
        assert loaded.ddpg.actor.network.get_flat().tobytes() == (
            untrained.ddpg.actor.network.get_flat().tobytes()
        )

    def test_interrupted_save_leaves_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A save that raises once the archive is written — before it
        replaces the previous one — leaves that checkpoint byte-identical
        and no temp file behind."""
        agent = trained_agent()
        target = save_agent(tmp_path / "agent", agent)
        before = {path.name: path.read_bytes() for path in target.iterdir()}
        reference = load_agent(target, make_msd_env(seed=99))

        agent.ddpg.update()  # new weights, new optimiser moments
        real_savez = np.savez

        def savez(file, **arrays):
            real_savez(file, **arrays)
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            save_agent(target, agent)
        monkeypatch.undo()

        assert [path.name for path in tmp_path.iterdir()] == ["agent"]
        assert {p.name: p.read_bytes() for p in target.iterdir()} == before
        loaded = load_agent(target, make_msd_env(seed=99))
        assert loaded.ddpg.actor.network.get_flat().tobytes() == (
            reference.ddpg.actor.network.get_flat().tobytes()
        )
        for pick in (
            lambda a: a.ddpg.replay.state_dict(),
            lambda a: a.ddpg.actor.optimizer.state_dict(),
            lambda a: a.ddpg.critic.optimizer.state_dict(),
            lambda a: a.model.optimizer.state_dict(),
        ):
            for key, value in pick(reference).items():
                assert np.asarray(pick(loaded)[key]).tobytes() == (
                    np.asarray(value).tobytes()
                ), key


class TestOlderCheckpoints:
    """A config holding a setting that was since retired is rejected by
    the key's name, whatever value it holds."""

    def test_retired_key_at_another_value_is_rejected_by_name(self, tmp_path):
        saved = save_agent(tmp_path / "agent", trained_agent())
        for value in (True, False):
            edit_config(saved, lambda data: data.update(keep_best_policy=value))
            with pytest.raises(ValueError, match="'keep_best_policy'"):
                load_agent(saved, make_msd_env(seed=99))
            edit_config(saved, lambda data: data.pop("keep_best_policy"))

    def test_unknown_key_is_rejected_by_name(self, tmp_path):
        saved = save_agent(tmp_path / "agent", trained_agent())
        edit_config(
            saved, lambda data: data["policy"]["ddpg"].update(dropout=0.1)
        )
        with pytest.raises(ValueError, match="'policy.ddpg.dropout'"):
            load_agent(saved, make_msd_env(seed=99))


class TestEpisodeCounter:
    def test_next_collection_continues_the_episode_count(self, tmp_path):
        """A reloaded agent's next distributed collection draws the
        episodes after the saved ones, not the first iteration's again:
        it collects exactly what the never-saved agent collects next."""
        spec = EnvSpec.make(
            "repro.eval.experiments:build_training_env", dataset="msd"
        )
        config = small_config()
        config = replace(
            config, policy=replace(config.policy, collect_mode="logical")
        )
        agent = MirasAgent(make_msd_env(seed=5), config, env_spec=spec)
        agent.collect_distributed(20)  # episodes 0 and 1
        saved = save_agent(tmp_path / "agent", agent)
        loaded = load_agent(saved, make_msd_env(seed=5))
        loaded.env_spec = spec

        for twin in (agent, loaded):
            twin.collect_distributed(10)
        assert [
            part[-10:].tobytes() for part in loaded.dataset.arrays()
        ] == [part[-10:].tobytes() for part in agent.dataset.arrays()]

    def test_reloaded_agent_keeps_its_seed(self, tmp_path):
        """The seed roots every stream and the episode plan: an agent
        built with seed 7 reloads at seed 7 and collects what the
        never-saved agent collects next."""
        spec = EnvSpec.make(
            "repro.eval.experiments:build_training_env", dataset="msd"
        )
        config = small_config()
        config = replace(
            config, policy=replace(config.policy, collect_mode="logical")
        )
        agent = MirasAgent(make_msd_env(seed=5), config, seed=7, env_spec=spec)
        agent.collect_distributed(20)
        loaded = load_agent(save_agent(tmp_path / "agent", agent), make_msd_env(seed=5))
        loaded.env_spec = spec
        assert loaded.seed == 7

        for twin in (agent, loaded):
            twin.collect_distributed(10)
        assert [
            part[-10:].tobytes() for part in loaded.dataset.arrays()
        ] == [part[-10:].tobytes() for part in agent.dataset.arrays()]

    def test_next_collection_after_training_uses_the_adapted_sigma(
        self, tmp_path
    ):
        """Policy training adapts the parameter-noise sigma; a reloaded
        agent perturbs its next collection by that sigma, not the
        initial one, so it collects exactly what the never-saved agent
        collects next."""
        spec = EnvSpec.make(
            "repro.eval.experiments:build_training_env", dataset="msd"
        )
        config = small_config()
        config = replace(config, policy=replace(
            config.policy, collect_mode="logical", rollout_length=30
        ))
        agent = MirasAgent(make_msd_env(seed=5), config, env_spec=spec)
        agent.iterate()
        assert (
            agent.ddpg.param_noise.sigma != PARAM_NOISE_SIGMA
        )
        saved = save_agent(tmp_path / "agent", agent)
        loaded = load_agent(saved, make_msd_env(seed=5))
        loaded.env_spec = spec

        for twin in (agent, loaded):
            twin.collect_distributed(30)
        assert [part.tobytes() for part in loaded.dataset.arrays()] == [
            part.tobytes() for part in agent.dataset.arrays()
        ]
        replays = [twin.ddpg.replay.state_dict() for twin in (agent, loaded)]
        assert replays[0].keys() == replays[1].keys()
        for key in replays[0]:
            assert (
                np.asarray(replays[0][key]).tobytes()
                == np.asarray(replays[1][key]).tobytes()
            ), key
