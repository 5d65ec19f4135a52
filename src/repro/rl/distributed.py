"""Distributed actor/learner collection topology.

The serial trainer alternates real-environment collection and learning on
one core.  This module splits *transition collection* from *learning*
(the DRPC argument: centralised RL provisioners don't scale): N collector
worker processes and the learner itself each run whole real-environment
episodes against their own environment replica; the workers ship the
resulting **transition blocks** back to the learner, which ingests every
block in episode order into the shared replay buffer via ``add_batch``.

Topology and determinism contract (docs/PERFORMANCE.md):

- The unit of work is one **episode** (one reset block of the collection
  schedule).  Episode ``e`` belongs to logical lane ``e mod L`` where
  ``L`` is the *fixed* logical-interleave width (``collect_lanes``) — a
  schedule constant, **not** the worker count.
- Every stochastic input of episode ``e`` derives from the stateless
  label ``lane{e mod L}/ep{e}`` via
  :func:`repro.utils.rng.derive_stream_seed`: the environment replica
  seed, the exploration stream, the burst draws.  Worker identity,
  scheduling and completion order never feed entropy.
- Blocks are ingested in **episode order** (the logical round-robin
  interleave), regardless of which process produced them or when:
  ``ordered_pool_map`` yields in input order, and
  :meth:`DistributedCollector.collect` checks each block against the
  plan.  The learner runs episode 0 and then, whenever the next block
  is not back yet, steals the last episode no worker has started, so
  which process runs an episode depends on timing, and nothing else
  does.

Together these pin the engine's output to the logical schedule: for any
worker count K the collected dataset, replay contents, traces and
downstream training are byte-identical to the K=0 run.  *Logical*
collection is that run: zero worker processes, every episode in this
one, the CI-checkable determinism witness.  *Physical* collection runs
the same schedule on K >= 1 worker processes plus this one, for
wall-clock throughput.

Abort semantics: collection is fail-fast.  If an episode raises, in a
worker or in the learner (episode 0 or a stolen one), the exception
propagates to the learner once the blocks before it are ingested, the
episodes not yet started are cancelled and the pool is shut down; a
worker process that dies surfaces as :class:`repro.utils.pool.WorkerDied` naming the first episode that did
not come back.  Either way exactly the contiguous episode-order prefix
before it remains ingested (no out-of-order partial state, no silent
loss).

Process safety: the worker entry point :func:`run_collect_episode` is
module-level and its payload is a plain dict of scalars, strings and
numpy arrays — no live RNG generators, tracers, sinks or open handles;
``tests/core/test_agent_distributed.py`` pickles real payloads across a
process pool and compares the merge byte for byte with the in-process
schedule.  Each process keeps one acting network per policy shape, and
one network for parameter-noise episodes to act through: an episode
overwrites the weights of both, so none reads what another left
(``tests/rl/test_serial_policy_oracle.py`` runs payloads A, B, A in one
process against an actor built per episode).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import MLP
from repro.rl.actor import Actor
from repro.rl.noise import GaussianActionNoise, repair_action_noise
from repro.utils.pool import ordered_pool_map
from repro.utils.rng import RngStream, derive_stream_seed
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "COLLECT_MODES",
    "EnvSpec",
    "EpisodeTask",
    "TransitionBlock",
    "DistributedCollector",
    "episode_plan",
    "policy_payload",
    "run_collect_episode",
]

#: Collection topologies ``PolicyConfig.collect_mode`` accepts.  ``serial``
#: is the historical in-loop path; ``logical`` executes the fixed
#: round-robin interleave schedule on zero worker processes; ``physical``
#: runs the same schedule on worker processes and the learner.
COLLECT_MODES = ("serial", "logical", "physical")


@dataclass(frozen=True)
class EnvSpec:
    """A picklable recipe for building an environment in any process.

    ``factory`` is a ``"module:callable"`` path resolved at build time;
    the callable receives ``seed=<int>`` plus the (sorted, hashable)
    ``params`` pairs and returns a fresh environment.  Worker processes
    receive only this plain data — never a live environment.
    """

    factory: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if ":" not in self.factory:
            raise ValueError(
                f"factory must be a 'module:callable' path, got "
                f"{self.factory!r}"
            )

    @classmethod
    def make(cls, factory: str, **params) -> "EnvSpec":
        return cls(factory, tuple(sorted(params.items())))

    def build(self, seed: int):
        """Import the factory and build an environment replica."""
        module_name, _, attr = self.factory.partition(":")
        module = importlib.import_module(module_name)
        try:
            factory = getattr(module, attr)
        except AttributeError:
            raise ValueError(
                f"module {module_name!r} has no attribute {attr!r}"
            ) from None
        return factory(seed=seed, **dict(self.params))


@dataclass(frozen=True)
class EpisodeTask:
    """One schedule slot: an episode pinned to its lane and seeds."""

    episode: int
    lane: int
    steps: int
    #: Exploration/burst stream seed (label-derived, K-independent).
    seed: int
    #: Environment-replica seed (separately label-derived).
    env_seed: int


def episode_plan(
    steps: int,
    reset_interval: int,
    lanes: int,
    root_seed: int,
    first_episode: int = 0,
) -> List[EpisodeTask]:
    """Slice ``steps`` into the fixed logical-interleave schedule.

    Episode lengths mirror the serial collection loop: full
    ``reset_interval`` blocks with a short final remainder.  Lane
    assignment and both per-episode seeds depend only on the episode
    index (and ``lanes``/``root_seed``) — never on who executes the
    plan or how wide the executing pool is.
    """
    check_positive("steps", steps)
    check_positive("reset_interval", reset_interval)
    check_positive("lanes", lanes)
    plan = []
    remaining = steps
    episode = first_episode
    while remaining > 0:
        block = min(reset_interval, remaining)
        lane = episode % lanes
        label = f"lane{lane}/ep{episode}"
        plan.append(
            EpisodeTask(
                episode=episode,
                lane=lane,
                steps=block,
                seed=derive_stream_seed(root_seed, label),
                env_seed=derive_stream_seed(root_seed, label + "/env"),
            )
        )
        remaining -= block
        episode += 1
    return plan


def policy_payload(ddpg) -> Dict:
    """Snapshot a DDPG policy as plain data a worker can rebuild from.

    Ships the actor weights plus the handful of hyper-parameters the
    exploration schedule needs.  Deliberately *not* the whole agent: no
    critic, no replay buffer, no RNG stream, no tracer — the payload
    must survive pickling into a worker process untouched.
    """
    cfg = ddpg.config
    return {
        "state_dim": int(ddpg.state_dim),
        "action_dim": int(ddpg.action_dim),
        "hidden_sizes": tuple(int(h) for h in cfg.hidden_sizes),
        "exploration": str(cfg.exploration),
        "param_noise_sigma": float(ddpg.param_noise.sigma),
        "action_noise_sigma": float(ddpg.action_noise.sigma),
        "actor_weights": ddpg.actor.network.state_dict(),
    }


#: ``(actor, perturbed network)`` per policy shape ``(state_dim,
#: action_dim, hidden_sizes)``, built once per process.
_ACTING: Dict[Tuple, Tuple[Actor, MLP]] = {}


def _acting_networks(payload: Dict, rng: RngStream) -> Tuple[Actor, MLP]:
    """This process's actor for the payload's shape, loaded with its
    weights, and the perturbed network beside it (weights stale).

    ``rng`` initialises the actor the first time a shape is seen.
    """
    key = (
        payload["state_dim"],
        payload["action_dim"],
        tuple(payload["hidden_sizes"]),
    )
    if key not in _ACTING:
        actor = Actor(
            payload["state_dim"],
            payload["action_dim"],
            hidden_sizes=payload["hidden_sizes"],
            rng=rng,
            weight_decay=0.0,  # acting only: its optimizer never steps
        )
        _ACTING[key] = (actor, actor.network.clone())
    actor, perturbed = _ACTING[key]
    actor.network.load_state_dict(payload["actor_weights"])
    return actor, perturbed


def run_collect_episode(spec: Dict) -> Dict:
    """Run one collection episode; module-level so pools can import it.

    ``spec`` is plain data (see :meth:`DistributedCollector._episode_spec`);
    the return value is the transition block as plain arrays.  Every
    stochastic draw comes from the two spec seeds, so the same spec
    yields the same block in any process.
    """
    # repro.rl sits below repro.sim; the env the spec builds is a sim env.
    from repro.sim.env import allocation_from_simplex

    env = EnvSpec(spec["env_factory"], spec["env_params"]).build(
        seed=spec["env_seed"]
    )
    rng = RngStream(
        f"collect/lane{spec['lane']}/ep{spec['episode']}",
        np.random.SeedSequence(spec["seed"]),
    )
    payload = spec["policy"]
    # The fork stays even when the actor exists already: it fixes where
    # the forks below fall in the stream tree.
    actor, perturbed = _acting_networks(payload, rng.fork("actor-init"))

    exploration = payload["exploration"]
    network = None
    noise = None
    if exploration == "parameter":
        # One perturbation per episode (the serial loop refreshes at reset
        # boundaries too); sigma is the learner's snapshot — adaptation
        # stays on the learner side, where the replay buffer lives.
        flat = actor.network.params
        noisy = flat + rng.fork("perturb").normal(
            0.0, payload["param_noise_sigma"], size=flat.shape
        )
        perturbed.set_flat(noisy)
        network = perturbed
    else:
        noise = GaussianActionNoise(sigma=payload["action_noise_sigma"])

    env.reset()
    state = env.inject_random_burst(
        rng.fork("burst"), spec["burst_probability"], spec["burst_scale"]
    )
    explore_rng = rng.fork("explore")
    steps = spec["steps"]
    random_fraction = spec["random_fraction"]
    action_dim = payload["action_dim"]
    states = np.empty((steps, env.state_dim), dtype=np.float64)
    executed = np.empty((steps, action_dim), dtype=np.int64)
    rewards = np.empty(steps, dtype=np.float64)
    next_states = np.empty((steps, env.state_dim), dtype=np.float64)
    for step in range(steps):
        if random_fraction > 0 and float(explore_rng.uniform()) < random_fraction:
            simplex = explore_rng.generator.dirichlet(np.ones(action_dim))[np.newaxis]
        else:
            simplex = actor.act(state[np.newaxis], network=network)
            if noise is not None:
                simplex, _ = repair_action_noise(simplex, noise, explore_rng)
        action = allocation_from_simplex(simplex, env.consumer_budget)[0]
        next_state, reward, _ = env.step(action)
        states[step] = state
        executed[step] = action
        rewards[step] = reward
        next_states[step] = next_state
        state = next_state
    return {
        "episode": spec["episode"],
        "lane": spec["lane"],
        "steps": steps,
        "states": states,
        "executed": executed,
        "rewards": rewards,
        "next_states": next_states,
        "episode_return": float(rewards.sum()),
        "sim_time_end": float(env.system.loop.now),
    }


@dataclass
class TransitionBlock:
    """The merge unit: one episode's transitions plus its bookkeeping."""

    episode: int
    lane: int
    steps: int
    #: ``(n, state_dim)`` float64 states.
    states: np.ndarray
    #: ``(n, action_dim)`` int64 *executed* allocations (what the real
    #: dynamics responded to — the dataset's action convention).
    executed: np.ndarray
    #: ``(n,)`` float64 rewards.
    rewards: np.ndarray
    #: ``(n, state_dim)`` float64 next states.
    next_states: np.ndarray
    episode_return: float
    #: Episode-replica simulation clock at the last window (deterministic).
    sim_time_end: float

    @classmethod
    def from_payload(cls, payload: Dict) -> "TransitionBlock":
        return cls(
            episode=payload["episode"],
            lane=payload["lane"],
            steps=payload["steps"],
            states=payload["states"],
            executed=payload["executed"],
            rewards=payload["rewards"],
            next_states=payload["next_states"],
            episode_return=payload["episode_return"],
            sim_time_end=payload["sim_time_end"],
        )


class DistributedCollector:
    """Executes an episode plan over N workers and merges the blocks.

    ``workers`` counts worker processes: the learner runs episodes beside
    them, the first and every one it steals while it waits for the next
    block (:func:`repro.utils.pool.ordered_pool_map`), and ``0`` —
    logical collection — runs every episode in this process.
    Blocks arrive in plan order, and the merged output is byte-identical
    for any worker count.
    """

    def __init__(
        self,
        env_spec: EnvSpec,
        workers: int = 0,
        burst_probability: float = 0.0,
        burst_scale: float = 0.0,
    ):
        check_non_negative("workers", workers)
        check_in_range("burst_probability", burst_probability, 0.0, 1.0)
        self.env_spec = env_spec
        self.workers = workers
        self.burst_probability = burst_probability
        self.burst_scale = burst_scale

    def _episode_spec(
        self, task: EpisodeTask, payload: Dict, random_fraction: float
    ) -> Dict:
        """The plain-data worker argument for one episode."""
        return {
            "episode": task.episode,
            "lane": task.lane,
            "steps": task.steps,
            "seed": task.seed,
            "env_seed": task.env_seed,
            "random_fraction": float(random_fraction),
            "env_factory": self.env_spec.factory,
            "env_params": self.env_spec.params,
            "burst_probability": float(self.burst_probability),
            "burst_scale": float(self.burst_scale),
            "policy": payload,
        }

    def collect(
        self,
        payload: Dict,
        plan: Sequence[EpisodeTask],
        random_fraction: float = 0.0,
        on_block: Optional[Callable[[TransitionBlock], None]] = None,
    ) -> List[TransitionBlock]:
        """Run every episode of ``plan``; returns blocks in episode order.

        ``on_block`` receives each block as the executor yields it (the
        actor/learner hand-off point), after it was checked to be the
        next planned episode; the full ordered list is also returned for
        callers that want it whole.  A plan that does not arrive whole
        and in order is a hard error, never a silently gapped dataset.
        """
        merged: List[TransitionBlock] = []
        specs = [
            self._episode_spec(task, payload, random_fraction)
            for task in plan
        ]
        # Results first: zip then runs the executor to its end (and the
        # pool's shutdown) before it stops.
        for result, task in zip(self._run_specs(specs), plan):
            block = TransitionBlock.from_payload(result)
            if block.episode != task.episode:
                raise RuntimeError(
                    f"collection out of order: got episode {block.episode}, "
                    f"expected {task.episode}"
                )
            merged.append(block)
            if on_block is not None:
                on_block(block)
        if len(merged) < len(plan):
            raise RuntimeError(
                f"collection ended with a gap at episode "
                f"{plan[len(merged)].episode}"
            )
        return merged

    def _run_specs(self, specs: List[Dict]) -> Iterable[Dict]:
        return ordered_pool_map(
            run_collect_episode, specs, self.workers,
            [f"episode {spec['episode']}" for spec in specs],
        )
