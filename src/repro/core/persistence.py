"""Persist and restore trained MIRAS agents.

A saved agent is one uncompressed ``.npz`` archive, ``DIR/agent.npz``:

- ``environment_model``, ``actor``, ``actor_target``, ``critic``,
  ``critic_target`` — each network's flat parameter vector
  (:meth:`repro.nn.MLP.get_flat`),
- ``norm/…`` — the environment model's input and target normalisation,
- ``dataset/states``, ``dataset/actions``, ``dataset/next_states`` — the
  interaction dataset D (zero rows when it is empty),
- ``replay/…`` — the DDPG replay buffer's ``state_dict`` (contents,
  cursor and wraparound state, restored bit-exactly),
- ``optimizer/model/…``, ``optimizer/actor/…``, ``optimizer/critic/…``
  — the three Adam ``state_dict`` snapshots, so training continued after a
  reload takes the same gradient steps as the never-saved agent,
- ``header`` — one JSON string: the full :class:`MirasConfig`, the
  per-iteration results, the seed, the distributed collector's episode
  counter and the adapted parameter-noise sigma, so a reloaded agent
  rebuilds the same seed streams and its next collection continues the
  episode indices with the same perturbation scale.

A config key that no config field has is a ``ValueError`` naming it.

Saving writes the archive to a temp file in ``DIR`` and moves it over
``agent.npz`` with one ``os.replace``: a save that raises leaves the
previous archive byte-identical and no temp file behind.

Loading builds ``MirasAgent(env, config, seed)`` and writes every saved
array into the networks, buffers and optimisers that agent built; the
environment itself — a live simulation — is not serialised, so bind to
any system with matching dimensions.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.agent import IterationResult, MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.core.refinement import RefinedModel
from repro.nn import MLP, Adam
from repro.rl.ddpg import DDPGConfig
from repro.sim.env import MicroserviceEnv

__all__ = ["save_agent", "load_agent", "config_to_dict", "config_from_dict"]

ARCHIVE = "agent.npz"


def _networks(agent: MirasAgent) -> Dict[str, MLP]:
    return {
        "environment_model": agent.model.network,
        "actor": agent.ddpg.actor.network,
        "actor_target": agent.ddpg.actor.target_network,
        "critic": agent.ddpg.critic.network,
        "critic_target": agent.ddpg.critic.target_network,
    }


def _optimizers(agent: MirasAgent) -> Dict[str, Adam]:
    return {
        "model": agent.model.optimizer,
        "actor": agent.ddpg.actor.optimizer,
        "critic": agent.ddpg.critic.optimizer,
    }


def config_to_dict(config: MirasConfig) -> dict:
    """MirasConfig -> plain JSON-serialisable dict."""
    return dataclasses.asdict(config)


def _fields(cls, data: dict, section: str) -> dict:
    """A copy of ``data``, whose keys must all be ``cls`` fields."""
    known = {field.name for field in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            name = f"{section}.{key}" if section else key
            raise ValueError(f"config has an unknown key {name!r}")
    return dict(data)


def config_from_dict(data: dict) -> MirasConfig:
    """Inverse of :func:`config_to_dict`."""
    kwargs = _fields(MirasConfig, data, "")
    kwargs["model"] = ModelConfig(**_fields(ModelConfig, data["model"], "model"))
    policy = _fields(PolicyConfig, data["policy"], "policy")
    policy["ddpg"] = DDPGConfig(
        **_fields(DDPGConfig, policy["ddpg"], "policy.ddpg")
    )
    kwargs["policy"] = PolicyConfig(**policy)
    return MirasConfig(**kwargs)


def _section(archive, prefix: str) -> Dict[str, np.ndarray]:
    """The entries under ``prefix/``, keyed by the rest of their name."""
    prefix += "/"
    return {
        key[len(prefix):]: archive[key]
        for key in archive.files
        if key.startswith(prefix)
    }


def _archive(agent: MirasAgent) -> Dict[str, np.ndarray]:
    header = {
        "config": config_to_dict(agent.config),
        "results": [dataclasses.asdict(r) for r in agent.results],
        "seed": agent.seed,
        "episodes_collected": agent._episodes_collected,
        "param_noise_sigma": agent.ddpg.param_noise.sigma,
    }
    arrays = {"header": np.array(json.dumps(header, default=list))}
    dataset = agent.dataset
    if len(dataset):
        states, actions, next_states = dataset.arrays()
    else:
        states = next_states = np.empty((0, dataset.state_dim))
        actions = np.empty((0, dataset.action_dim))
    arrays.update({
        "dataset/states": states,
        "dataset/actions": actions,
        "dataset/next_states": next_states,
    })
    for name, network in _networks(agent).items():
        arrays[name] = network.params  # written as is, not copied
    for key, value in agent.model._norm.items():
        arrays[f"norm/{key}"] = value
    for key, value in agent.ddpg.replay.state_dict().items():
        arrays[f"replay/{key}"] = value
    for owner, optimizer in _optimizers(agent).items():
        for key, value in optimizer.state_dict().items():
            arrays[f"optimizer/{owner}/{key}"] = value
    return arrays


def save_agent(directory: Union[str, Path], agent: MirasAgent) -> Path:
    """Write ``agent`` to ``directory/agent.npz`` (directory created if
    needed), replacing any previous archive in one step."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    temp = directory / f".{ARCHIVE}.tmp"
    try:
        with open(temp, "wb") as handle:
            np.savez(handle, **_archive(agent))
        os.replace(temp, directory / ARCHIVE)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return directory


def load_agent(directory: Union[str, Path], env: MicroserviceEnv) -> MirasAgent:
    """Reconstruct an agent saved by :func:`save_agent`, bound to ``env``.

    Entries are read one at a time, as each is written into the agent.
    """
    with np.load(Path(directory) / ARCHIVE) as archive:
        dataset = _section(archive, "dataset")
        if dataset["states"].shape[1] != env.state_dim:
            raise ValueError(
                f"saved agent has state_dim {dataset['states'].shape[1]}, "
                f"environment has {env.state_dim}"
            )
        header = json.loads(archive["header"].item())
        agent = MirasAgent(
            env, config_from_dict(header["config"]), seed=header["seed"]
        )
        for s, a, s2 in zip(
            dataset["states"], dataset["actions"], dataset["next_states"]
        ):
            agent.dataset.add(s, a, s2)

        for name, network in _networks(agent).items():
            network.set_flat(archive[name])
        agent.model._norm = _section(archive, "norm")
        if len(agent.dataset):
            agent.refined_model = RefinedModel.from_dataset(
                agent.model,
                agent.dataset,
                rng=agent._rngs["refine"].fork(f"n{len(agent.dataset)}"),
                tracer=agent.tracer,
            )

        agent.ddpg.replay.load_state_dict(_section(archive, "replay"))
        for owner, optimizer in _optimizers(agent).items():
            optimizer.load_state_dict(_section(archive, f"optimizer/{owner}"))
    agent.results = [IterationResult(**entry) for entry in header["results"]]
    agent._episodes_collected = header["episodes_collected"]
    agent.ddpg.param_noise.sigma = header["param_noise_sigma"]
    return agent
