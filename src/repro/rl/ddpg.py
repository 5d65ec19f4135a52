"""DDPG agent with parameter-space exploration noise.

Implements the policy-learning half of MIRAS (Section IV-D): actor-critic
with target networks and replay (Lillicrap et al.), exploring by perturbing
the actor's weights with adaptive Gaussian noise (Plappert et al.) so every
explored action still lies on the probability simplex and therefore never
violates the consumer budget.

Gaussian action-space noise is also implemented — the paper's ablation
finding is that it "performs poorly" because noisy actions break the
constraint — so the comparison is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn import MLP, soft_update
from repro.rl.actor import Actor
from repro.rl.critic import Critic
from repro.rl.noise import (
    AdaptiveParameterNoise,
    GaussianActionNoise,
    repair_action_noise,
)
from repro.rl.replay import ReplayBuffer
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.rng import RngStream
from repro.utils.validation import check_in_range, check_non_negative, check_positive

__all__ = ["DDPGConfig", "DDPGAgent"]

#: Emit ddpg/* metrics every this many updates when tracing is on — one
#: record per update would dominate the trace during policy training.
METRIC_INTERVAL = 50

#: Target-network soft-update rate (Polyak averaging).
TAU = 0.01

#: Actor Adam step size: DDPG's (Lillicrap et al.); the critic's is
#: :data:`repro.rl.critic.LEARNING_RATE`.
ACTOR_LEARNING_RATE = 1e-4

#: Replay ring size; past it the oldest transitions are overwritten.  The
#: paper gives none; this reproduction's choice.
BUFFER_CAPACITY = 100_000

#: Initial std of the actor-weight perturbation, adapted toward
#: PARAM_NOISE_DELTA from there (Plappert et al.); this reproduction's
#: starting point.
PARAM_NOISE_SIGMA = 0.05

#: Std of the Gaussian action noise of the 'action-gaussian' ablation;
#: this reproduction's choice.
ACTION_NOISE_SIGMA = 0.15

#: Refresh the perturbed actor every this many act() calls: once per
#: 25-step collection episode (MirasConfig.reset_interval), as Plappert et
#: al. resample the perturbation per episode.
PERTURB_INTERVAL = 25


@dataclass
class DDPGConfig:
    """Hyper-parameters for one DDPG agent.

    Paper defaults (Section VI-A3): actor/critic are 3 layers of 256
    neurons for MSD (512 for LIGO).
    """

    hidden_sizes: Sequence[int] = (256, 256, 256)
    gamma: float = 0.95
    batch_size: int = 64
    #: 'parameter' (MIRAS) or 'action-gaussian' (the paper's ablation).
    exploration: str = "parameter"
    #: Decoupled weight decay on the actor (prevents logit saturation).
    actor_weight_decay: float = 1e-3
    #: Entropy bonus on the actor objective (ascend Q + beta * H(a)).
    #: Softmax policies over a budget simplex collapse to corners without
    #: it — a corner allocation starves every other microservice, which is
    #: catastrophic for workflow pipelines.
    entropy_weight: float = 0.02

    def __post_init__(self):
        check_in_range("gamma", self.gamma, 0.0, 1.0)
        check_non_negative("actor_weight_decay", self.actor_weight_decay)
        check_non_negative("entropy_weight", self.entropy_weight)
        check_positive("batch_size", self.batch_size)
        valid = {"parameter", "action-gaussian"}
        if self.exploration not in valid:
            raise ValueError(
                f"exploration must be one of {sorted(valid)}, "
                f"got {self.exploration!r}"
            )


class DDPGAgent:
    """Actor-critic agent over simplex actions."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        config: Optional[DDPGConfig] = None,
        *,
        rng: RngStream,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config or DDPGConfig()
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.state_dim = state_dim
        self.action_dim = action_dim
        cfg = self.config

        self.actor = Actor(
            state_dim,
            action_dim,
            hidden_sizes=cfg.hidden_sizes,
            learning_rate=ACTOR_LEARNING_RATE,
            rng=rng.fork("actor"),
            weight_decay=cfg.actor_weight_decay,
        )
        self.critic = Critic(
            state_dim,
            action_dim,
            hidden_sizes=cfg.hidden_sizes,
            rng=rng.fork("critic"),
        )
        self.replay = ReplayBuffer(BUFFER_CAPACITY, state_dim, action_dim)

        self.param_noise = AdaptiveParameterNoise(
            initial_sigma=PARAM_NOISE_SIGMA
        )
        self._perturbed_network: Optional[MLP] = None
        self._acts_since_perturb = 0
        self._perturbs_done = 0
        self.action_noise = GaussianActionNoise(sigma=ACTION_NOISE_SIGMA)

        self.updates_done = 0
        #: Count of exploration actions that left the simplex (only possible
        #: with action-space noise) — the paper's "invalid exploration".
        self.constraint_violations = 0
        self.exploration_actions = 0

    # Exploration machinery -------------------------------------------------
    def refresh_due(self) -> bool:
        """True when the next exploring act() will refresh the perturbed
        actor (and therefore sample the replay buffer to adapt sigma)."""
        return (
            self._perturbed_network is None
            or self._acts_since_perturb >= PERTURB_INTERVAL
        )

    def refresh_perturbation(self) -> None:
        """Resample the perturbed actor (call at episode boundaries).

        The perturbed network is built once and overwritten in place.
        """
        flat = self.actor.network.params
        # Label carries the refresh index: each perturbation gets its own
        # uniquely named stream (labels never feed entropy, so this is
        # name-only — draws are unchanged for a fixed seed).
        noisy = self.param_noise.perturb(
            flat, self.rng.fork(f"perturb{self._perturbs_done}")
        )
        self._perturbs_done += 1
        if self._perturbed_network is None:
            self._perturbed_network = self.actor.network.clone()
        self._perturbed_network.set_flat(noisy)
        self._acts_since_perturb = 0

    def adapt_parameter_noise(self) -> Optional[float]:
        """Adapt sigma from replayed states; returns the measured distance."""
        if self._perturbed_network is None or len(self.replay) == 0:
            return None
        states = self.replay.sample_states(
            min(self.config.batch_size, len(self.replay)), self.rng
        )
        clean = self.actor.act(states)
        noisy = self.actor.act(states, network=self._perturbed_network)
        distance = AdaptiveParameterNoise.action_distance(clean, noisy)
        self.param_noise.adapt(distance)
        return distance

    # Acting ------------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """Simplex action for one state: a batch of one through :meth:`_act`."""
        return self._act(state, explore)[0]

    def _act(self, states: np.ndarray, explore: bool = True) -> np.ndarray:
        """Simplex actions for a ``(K, state_dim)`` block in one forward.

        Exploration bookkeeping has one decision point per block: the
        perturbed network refreshes when the *first* row would have
        triggered it, then all K rows ride the same perturbation (one
        perturbed-weight forward per rollout set).  Action-space noise
        perturbs every row and projects each violating row back onto the
        simplex.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if not explore:
            return self.actor.act(states)
        k = states.shape[0]
        self.exploration_actions += k

        if self.config.exploration == "parameter":
            if self.refresh_due():
                self.refresh_perturbation()
                self.adapt_parameter_noise()
            self._acts_since_perturb += k
            return self.actor.act(states, network=self._perturbed_network)

        noisy, violations = repair_action_noise(
            self.actor.act(states), self.action_noise, self.rng
        )
        self.constraint_violations += violations
        return noisy

    def act_batch(self, states: np.ndarray, explore: bool = True) -> np.ndarray:
        """Simplex actions for a ``(K, state_dim)`` block (see :meth:`_act`)."""
        return self._act(states, explore)

    def act_greedy(self, state: np.ndarray) -> np.ndarray:
        """Deterministic policy action (evaluation mode)."""
        return self.act(state, explore=False)

    # Learning ------------------------------------------------------------------
    def store(
        self,
        state: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_state: np.ndarray,
    ) -> None:
        self.replay.add(state, action, reward, next_state)

    def store_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
    ) -> None:
        """Bulk-store a ``(K, ·)`` block of transitions."""
        self.replay.add_batch(states, actions, rewards, next_states)

    def update(self) -> Tuple[float, float]:
        """One DDPG update; returns ``(critic_loss, mean_q)``.

        ``mean_q`` is the batch mean of Q(s, mu(s)) in reward units under
        the just-updated critic and the policy *before* its step.
        """
        cfg = self.config
        if len(self.replay) == 0:
            raise RuntimeError("cannot update with an empty replay buffer")
        batch = self.replay.sample(cfg.batch_size, self.rng)
        states = batch["states"]
        actions = batch["actions"]
        rewards = batch["rewards"]
        next_states = batch["next_states"]

        # Actor and critic normalise states identically (the same
        # log_wip map and STATE_SCALE), so do it once; each (network, weights,
        # input) triple below is then forwarded exactly once.
        features = self.actor.normalize(states)
        next_features = self.actor.normalize(next_states)

        # Critic: y = r + gamma * Q'(s', mu'(s')).
        next_actions = self.actor.actions(
            next_features, self.actor.target_network
        )
        next_q = self.critic.q_features(
            next_features, next_actions, target=True
        )
        targets = rewards + cfg.gamma * next_q
        critic_loss = self.critic.train_features(features, actions, targets)

        # Actor: ascend Q(s, mu(s)) + beta * H(mu(s)).  mean_q is that
        # objective's Q term, read off the critic forward that also yields
        # dQ/da — so it is measured before this update's actor step.
        mean_q = 0.0

        def dq_da_at(policy_actions: np.ndarray) -> np.ndarray:
            nonlocal mean_q
            q, dq_da = self.critic.q_and_action_gradient(
                features, policy_actions
            )
            mean_q = float(np.mean(q))
            if cfg.entropy_weight:
                entropy_grad = -(np.log(policy_actions + 1e-8) + 1.0)
                dq_da = dq_da + cfg.entropy_weight * entropy_grad
            return dq_da

        self.actor.policy_gradient_step(features, dq_da_at)

        soft_update(self.actor.target_network, self.actor.network, TAU)
        soft_update(self.critic.target_network, self.critic.network, TAU)
        self.updates_done += 1
        if self.tracer.enabled and self.updates_done % METRIC_INTERVAL == 0:
            self.tracer.metric(
                "ddpg/critic_loss", critic_loss, step=self.updates_done
            )
            self.tracer.metric("ddpg/mean_q", mean_q, step=self.updates_done)
            self.tracer.metric(
                "ddpg/param_noise_sigma",
                self.param_noise.sigma,
                step=self.updates_done,
            )
        return critic_loss, mean_q

    def update_many(self, num_updates: int) -> float:
        """Run several updates; returns the mean critic loss."""
        check_positive("num_updates", num_updates)
        losses = [self.update()[0] for _ in range(num_updates)]
        return float(np.mean(losses))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DDPGAgent(dims={self.state_dim}/{self.action_dim}, "
            f"exploration={self.config.exploration!r}, "
            f"updates={self.updates_done})"
        )
