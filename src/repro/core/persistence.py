"""Persist and restore trained MIRAS agents.

A saved agent directory contains:

- ``config.json`` — the full :class:`MirasConfig` (nested dataclasses),
- ``dataset.npz`` — the interaction dataset D,
- ``environment_model.npz`` + ``environment_model_norm.npz`` — f̂_Φ,
- ``actor.npz`` / ``critic.npz`` (+ ``*_target.npz``) — the DDPG networks,
- ``replay.npz`` — the DDPG replay buffer (contents, cursor, and
  wraparound state, restored bit-exactly),
- ``optimizers.npz`` — Adam moments and step counts of the model, actor
  and critic optimisers (``model/…``, ``actor/…``, ``critic/…``), so
  training continued after a reload takes the same gradient steps as the
  never-saved agent; directories written before this file existed load
  with fresh optimisers,
- ``results.json`` — per-iteration training diagnostics,
- ``episodes.json`` — the distributed collector's episode counter, so a
  reloaded agent's next collection continues the episode indices (and
  the seed streams derived from them) instead of re-drawing the first
  iteration's; directories written before this file existed load at 0.

A ``config.json`` written before a setting was retired still loads as
long as it holds that setting at the one value it now takes; any other
value, or a key no config ever had, is a ``ValueError`` naming it.

Saving is atomic per file: everything is written to a sibling staging
directory first and only then moved into place with ``os.replace``, so a
save that is killed or raises part-way leaves the previous checkpoint
exactly as it was — never new weights beside an old replay buffer.

Loading reconstructs a fully functional agent bound to a caller-provided
environment (the environment itself — a live simulation — is not
serialised; bind to any system with matching dimensions).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.agent import IterationResult, MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.core.refinement import RefinedModel
from repro.nn.serialization import load_mlp, save_mlp
from repro.rl.ddpg import DDPGConfig
from repro.sim.env import MicroserviceEnv

__all__ = ["save_agent", "load_agent", "config_to_dict", "config_from_dict"]

#: Settings older ``config.json`` files carry, per section, with the one
#: value each is now fixed at.
_RETIRED = {
    "model": {
        "learning_rate": 1e-3,
        "batch_size": 64,
        "refinement_percentile": 20.0,
        "refinement_enabled": True,
    },
    "policy.ddpg": {
        "critic_learning_rate": 1e-3,
        "param_noise_delta": 0.05,
        "state_scale": 100.0,
        "output_mixing": 0.02,
    },
    "": {
        "initial_random_fraction": 1.0,
        "collect_burst_probability": 0.3,
        "collect_burst_scale": 20.0,
        "keep_best_policy": True,
        "target_eval_reward": None,
    },
}


def _optimizers(agent: MirasAgent) -> dict:
    return {
        "model": agent.model.optimizer,
        "actor": agent.ddpg.actor.optimizer,
        "critic": agent.ddpg.critic.optimizer,
    }


def config_to_dict(config: MirasConfig) -> dict:
    """MirasConfig -> plain JSON-serialisable dict."""
    return dataclasses.asdict(config)


def _fields(cls, data: dict, section: str) -> dict:
    """``data``'s ``cls`` fields; a retired key at its fixed value is dropped."""
    known = {field.name for field in dataclasses.fields(cls)}
    retired = _RETIRED.get(section, {})
    kwargs = {}
    for key, value in data.items():
        name = f"{section}.{key}" if section else key
        if key in known:
            kwargs[key] = value
        elif key not in retired:
            raise ValueError(f"config has an unknown key {name!r}")
        elif value != retired[key]:
            raise ValueError(
                f"config sets the retired key {name!r} to {value!r}; "
                f"it is fixed at {retired[key]!r}"
            )
    return kwargs


def config_from_dict(data: dict) -> MirasConfig:
    """Inverse of :func:`config_to_dict`, older ``config.json`` dicts too."""
    kwargs = _fields(MirasConfig, data, "")
    kwargs["model"] = ModelConfig(**_fields(ModelConfig, data["model"], "model"))
    policy = _fields(PolicyConfig, data["policy"], "policy")
    policy["ddpg"] = DDPGConfig(
        **_fields(DDPGConfig, policy["ddpg"], "policy.ddpg")
    )
    kwargs["policy"] = PolicyConfig(**policy)
    return MirasConfig(**kwargs)


def save_agent(directory: Union[str, Path], agent: MirasAgent) -> Path:
    """Write a trained agent to ``directory`` (created if needed)."""
    directory = Path(directory)
    staging = directory.with_name(directory.name + ".saving")
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed save
    staging.mkdir(parents=True)
    try:
        _write_agent(staging, agent)
        if directory.exists():
            for path in staging.iterdir():
                os.replace(path, directory / path.name)
        else:
            os.replace(staging, directory)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return directory


def _write_agent(directory: Path, agent: MirasAgent) -> None:
    (directory / "config.json").write_text(
        json.dumps(config_to_dict(agent.config), indent=2, default=list)
    )

    if len(agent.dataset):
        states, actions, next_states = agent.dataset.arrays()
        np.savez(
            directory / "dataset.npz",
            states=states,
            actions=actions,
            next_states=next_states,
        )

    save_mlp(directory / "environment_model", agent.model.network)
    np.savez(directory / "environment_model_norm.npz", **agent.model._norm)
    save_mlp(directory / "actor", agent.ddpg.actor.network)
    save_mlp(directory / "actor_target", agent.ddpg.actor.target_network)
    save_mlp(directory / "critic", agent.ddpg.critic.network)
    save_mlp(directory / "critic_target", agent.ddpg.critic.target_network)
    np.savez(directory / "replay.npz", **agent.ddpg.replay.state_dict())
    np.savez(
        directory / "optimizers.npz",
        **{
            f"{owner}/{key}": value
            for owner, optimizer in _optimizers(agent).items()
            for key, value in optimizer.state_dict().items()
        },
    )

    (directory / "results.json").write_text(
        json.dumps([dataclasses.asdict(r) for r in agent.results], indent=2)
    )
    (directory / "episodes.json").write_text(
        json.dumps({"episodes_collected": agent._episodes_collected})
    )


def load_agent(
    directory: Union[str, Path], env: MicroserviceEnv, seed: int = 0
) -> MirasAgent:
    """Reconstruct an agent saved by :func:`save_agent`, bound to ``env``."""
    directory = Path(directory)
    config = config_from_dict(
        json.loads((directory / "config.json").read_text())
    )
    agent = MirasAgent(env, config, seed=seed)

    dataset_path = directory / "dataset.npz"
    if dataset_path.exists():
        with np.load(dataset_path) as archive:
            states = archive["states"]
            actions = archive["actions"]
            next_states = archive["next_states"]
        if states.shape[1] != env.state_dim:
            raise ValueError(
                f"saved agent has state_dim {states.shape[1]}, environment "
                f"has {env.state_dim}"
            )
        for s, a, s2 in zip(states, actions, next_states):
            agent.dataset.add(s, a, s2)

    agent.model.network = load_mlp(directory / "environment_model.npz")
    with np.load(directory / "environment_model_norm.npz") as norm:
        agent.model._norm = {key: norm[key].copy() for key in norm.files}
    agent.model.trained = True
    if len(agent.dataset):
        agent.refined_model = RefinedModel.from_dataset(
            agent.model,
            agent.dataset,
            rng=agent._rngs["refine"].fork(f"n{len(agent.dataset)}"),
            tracer=agent.tracer,
        )

    agent.ddpg.actor.network = load_mlp(directory / "actor.npz")
    agent.ddpg.actor.target_network = load_mlp(directory / "actor_target.npz")
    agent.ddpg.critic.network = load_mlp(directory / "critic.npz")
    agent.ddpg.critic.target_network = load_mlp(
        directory / "critic_target.npz"
    )

    replay_path = directory / "replay.npz"
    if replay_path.exists():
        with np.load(replay_path) as archive:
            agent.ddpg.replay.load_state_dict(
                {key: archive[key] for key in archive.files}
            )

    optimizers_path = directory / "optimizers.npz"
    if optimizers_path.exists():
        with np.load(optimizers_path) as archive:
            for owner, optimizer in _optimizers(agent).items():
                prefix = f"{owner}/"
                optimizer.load_state_dict(
                    {
                        key[len(prefix) :]: archive[key]
                        for key in archive.files
                        if key.startswith(prefix)
                    }
                )

    results_path = directory / "results.json"
    if results_path.exists():
        agent.results = [
            IterationResult(**entry)
            for entry in json.loads(results_path.read_text())
        ]
    episodes_path = directory / "episodes.json"
    if episodes_path.exists():
        agent._episodes_collected = json.loads(episodes_path.read_text())[
            "episodes_collected"
        ]
    return agent
