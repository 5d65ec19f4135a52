"""The serial policy path as it ran before serial became a batch of one.

Kept in ``tests/`` as the K=1 oracle for the training-side functions that
now take one ``(K, ...)`` block: acting, action noise, the simplex
projection, the refined model and the collection worker's exploration
step.  Every body below is the pre-change code verbatim: one state, one
``(n,)`` vector, one draw of ``size=d`` at a time.  Methods are
overrides of today's classes (``Reference`` prefix); the free functions
shadow today's names in this module, so the verbatim bodies resolve to
the verbatim helpers.  Batch bodies the serial code leaned on
(``Actor.act_batch`` for sigma adaptation) come along verbatim too.

tests/rl/test_serial_policy_oracle.py drives today's code and these on
the same seeds and requires equal bytes, counters and RNG state.
"""

from typing import Dict, Optional

import numpy as np

from repro.core.refinement import RefinedModel
from repro.nn import MLP
from repro.rl import distributed
from repro.rl.actor import Actor
from repro.rl.ddpg import DDPGAgent
from repro.rl.noise import (
    AdaptiveParameterNoise,
    GaussianActionNoise,
    OrnsteinUhlenbeckNoise,
)
from repro.sim.env import MicroserviceEnv
from repro.utils.rng import RngStream

__all__ = [
    "ReferenceActor",
    "ReferenceDDPGAgent",
    "ReferenceGaussianActionNoise",
    "ReferenceOrnsteinUhlenbeckNoise",
    "ReferenceRefinedModel",
    "project_to_simplex",
    "run_collect_episode",
]


def project_to_simplex(vector: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Algorithm of Duchi et al. (2008).  Used to repair constraint-violating
    noisy actions so the system can still execute them.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vector.shape}")
    sorted_desc = np.sort(vector)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, vector.size + 1)
    candidates = sorted_desc - cumulative / indices
    rho = np.nonzero(candidates > 0)[0][-1]
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(vector - theta, 0.0)


class ReferenceGaussianActionNoise(GaussianActionNoise):
    def sample(self, action_dim: int, rng: RngStream) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=action_dim)


class ReferenceOrnsteinUhlenbeckNoise(OrnsteinUhlenbeckNoise):
    def sample(self, action_dim: int, rng: RngStream) -> np.ndarray:
        if action_dim != self.action_dim:
            raise ValueError(
                f"noise built for dim {self.action_dim}, asked for {action_dim}"
            )
        drift = -self.theta * self._state * self.dt
        diffusion = self.sigma * np.sqrt(self.dt) * rng.normal(
            size=self.action_dim
        )
        self._state = self._state + drift + diffusion
        return self._state.copy()


_REFERENCE_NOISE = {
    GaussianActionNoise: ReferenceGaussianActionNoise,
    OrnsteinUhlenbeckNoise: ReferenceOrnsteinUhlenbeckNoise,
}


class ReferenceActor(Actor):
    def act(self, state: np.ndarray, network: Optional[MLP] = None) -> np.ndarray:
        """Action for one state; optionally through a perturbed network."""
        network = network or self.network
        action = network.predict(self.normalize(np.atleast_2d(state)))[0]
        return self._mix(action)

    def act_batch(
        self, states: np.ndarray, network: Optional[MLP] = None
    ) -> np.ndarray:
        """Actions for a ``(K, state_dim)`` block; row k matches :meth:`act`."""
        return self.actions(self.normalize(states), network)


class ReferenceDDPGAgent(DDPGAgent):
    """Today's agent with the serial actor, noise and act put back."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.actor.__class__ = ReferenceActor
        self.action_noise.__class__ = _REFERENCE_NOISE[type(self.action_noise)]

    def adapt_parameter_noise(self) -> Optional[float]:
        """Adapt sigma from replayed states; returns the measured distance."""
        if self._perturbed_network is None or len(self.replay) == 0:
            return None
        states = self.replay.sample_states(
            min(self.config.batch_size, len(self.replay)), self.rng
        )
        clean = self.actor.act_batch(states)
        noisy = self.actor.act_batch(states, network=self._perturbed_network)
        distance = AdaptiveParameterNoise.action_distance(clean, noisy)
        self.param_noise.adapt(distance)
        return distance

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """Simplex action for one state (with exploration when asked)."""
        state = np.asarray(state, dtype=np.float64)
        if not explore or self.config.exploration == "none":
            return self.actor.act(state)
        self.exploration_actions += 1

        if self.config.exploration == "parameter":
            if self.refresh_due():
                self.refresh_perturbation()
                self.adapt_parameter_noise()
            self._acts_since_perturb += 1
            return self.actor.act(state, network=self._perturbed_network)

        # Action-space noise: perturb, count violations, repair by projection.
        clean = self.actor.act(state)
        noisy = clean + self.action_noise.sample(self.action_dim, self.rng)
        if np.any(noisy < 0) or abs(float(noisy.sum()) - 1.0) > 1e-6:
            self.constraint_violations += 1
            noisy = project_to_simplex(noisy)
        return noisy


class ReferenceRefinedModel(RefinedModel):
    def predict(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        """Refined one-step prediction (single state only).

        Follows Algorithm 1 line by line: an independent Lend–Giveback
        per below-threshold dimension, then the per-dimension results are
        assembled into ŝ(k+1) (above-threshold dimensions use the raw
        model).  The output is clamped at 0 in every dimension.
        """
        state = np.asarray(state, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        if state.ndim != 1:
            raise ValueError(
                "RefinedModel.predict takes one state at a time "
                f"(got shape {state.shape})"
            )
        return self._predict_rows(
            state[np.newaxis], np.atleast_2d(action)
        )[0]

    def _predict_rows(
        self, states: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """Algorithm 1 over rows: dimension-major, matching the serial
        per-dimension draw order when there is a single row."""
        base = np.asarray(self.model.predict(states, actions))
        refined = np.maximum(base, 0.0)
        for j in range(self.state_dim):
            low, high = self.tau[j], self.omega[j]
            if high <= low:
                continue  # degenerate thresholds: nothing to lend
            rows = np.nonzero(states[:, j] < low)[0]
            if rows.size == 0:
                continue
            rho = self._rng.uniform(low, high, size=rows.size)
            lent = states[rows].copy()
            lent[:, j] += rho  # Lend
            predicted = self.model.predict(lent, actions[rows])
            giveback = np.maximum(predicted[:, j] - rho, 0.0)  # Giveback
            refined[rows, j] = giveback
            self.lend_count += int(rows.size)
            self.lend_delta_total += float(
                np.sum(np.abs(giveback - np.maximum(base[rows, j], 0.0)))
            )
            if self.tracer.enabled:
                self.tracer.count("refinement/lends", int(rows.size))
        return refined


# --- The collection worker ---------------------------------------------------
# run_collect_episode below is verbatim but for one name: its local stream
# is ``episode_rng``, because reprolint's R101 groups fork labels by the
# receiver's name and would pair these forks with the production worker's.
# The names defined here make it resolve to the serial actor, noise and env
# mapping.


class ReferenceMicroserviceEnv(MicroserviceEnv):
    def allocation_from_simplex(self, simplex: np.ndarray) -> np.ndarray:
        """The paper's mapping ``m_j = floor(C * a_j)`` from a softmax output.

        Because the inputs sum to one, the floors always satisfy the budget.
        """
        simplex = np.asarray(simplex, dtype=np.float64)
        if simplex.shape != (self.action_dim,):
            raise ValueError(
                f"simplex action has shape {simplex.shape}, expected "
                f"({self.action_dim},)"
            )
        if np.any(simplex < -1e-9) or abs(float(simplex.sum()) - 1.0) > 1e-6:
            raise ValueError(
                f"action is not a probability simplex: {simplex} "
                f"(sum={simplex.sum()!r})"
            )
        allocation = np.floor(self.consumer_budget * np.clip(simplex, 0, 1))
        return allocation.astype(np.int64)


class EnvSpec(distributed.EnvSpec):
    def build(self, seed: int):
        env = super().build(seed)
        env.__class__ = ReferenceMicroserviceEnv
        return env


def _actor_from_payload(payload: Dict, rng: RngStream) -> Actor:
    actor = distributed._actor_from_payload(payload, rng)
    actor.__class__ = ReferenceActor
    return actor


GaussianActionNoise = ReferenceGaussianActionNoise  # noqa: F811
OrnsteinUhlenbeckNoise = ReferenceOrnsteinUhlenbeckNoise  # noqa: F811


def run_collect_episode(spec: Dict) -> Dict:
    """Run one collection episode; module-level so pools can import it.

    ``spec`` is plain data (see :meth:`DistributedCollector._episode_spec`);
    the return value is the transition block as plain arrays.  Every
    stochastic draw comes from the two spec seeds, so the same spec
    yields the same block in any process.
    """
    env = EnvSpec(spec["env_factory"], spec["env_params"]).build(
        seed=spec["env_seed"]
    )
    episode_rng = RngStream(
        f"collect/lane{spec['lane']}/ep{spec['episode']}",
        np.random.SeedSequence(spec["seed"]),
    )
    payload = spec["policy"]
    actor = _actor_from_payload(payload, episode_rng.fork("actor-init"))

    exploration = payload["exploration"]
    network = None
    noise = None
    if exploration == "parameter":
        # One perturbation per episode (the serial loop refreshes at reset
        # boundaries too); sigma is the learner's snapshot — adaptation
        # stays on the learner side, where the replay buffer lives.
        flat = actor.network.get_flat()
        noisy = flat + episode_rng.fork("perturb").normal(
            0.0, payload["param_noise_sigma"], size=flat.shape
        )
        network = actor.network.clone()
        network.set_flat(noisy)
    elif exploration == "action-ou":
        noise = OrnsteinUhlenbeckNoise(
            payload["action_dim"], sigma=payload["action_noise_sigma"]
        )
    elif exploration == "action-gaussian":
        noise = GaussianActionNoise(sigma=payload["action_noise_sigma"])

    env.reset()
    state = env.inject_random_burst(
        episode_rng.fork("burst"), spec["burst_probability"], spec["burst_scale"]
    )
    explore_rng = episode_rng.fork("explore")
    steps = spec["steps"]
    random_fraction = spec["random_fraction"]
    action_dim = payload["action_dim"]
    states = np.empty((steps, env.state_dim), dtype=np.float64)
    executed = np.empty((steps, action_dim), dtype=np.int64)
    rewards = np.empty(steps, dtype=np.float64)
    next_states = np.empty((steps, env.state_dim), dtype=np.float64)
    for step in range(steps):
        if random_fraction > 0 and float(explore_rng.uniform()) < random_fraction:
            simplex = explore_rng.generator.dirichlet(np.ones(action_dim))
        elif exploration == "parameter":
            simplex = actor.act(state, network=network)
        elif exploration == "none":
            simplex = actor.act(state)
        else:
            clean = actor.act(state)
            simplex = clean + noise.sample(action_dim, explore_rng)
            if np.any(simplex < 0) or abs(float(simplex.sum()) - 1.0) > 1e-6:
                simplex = project_to_simplex(simplex)
        action = env.allocation_from_simplex(simplex)
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
