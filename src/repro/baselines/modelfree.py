"""Model-free DDPG baseline ("rl" in Figs. 7–8).

"The 4th algorithm is DDPG with no predictive model, or model-free DDPG.
That is, we directly train DDPG models by interacting with the real
environment.  To guarantee fairness, we train DDPG models using the same
number of interactions with MIRAS" (Section VI-D).

The paper's finding — model-free DDPG "doesn't converge to a good policy,
showing its poor sample efficiency" — emerges here naturally: the agent
gets only as many *real* transitions as MIRAS collected, with no synthetic
model rollouts to multiply them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import Allocator
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.sim.env import MicroserviceEnv, allocation_from_simplex
from repro.sim.metrics import WindowObservation
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["ModelFreeDDPGAllocator"]


class ModelFreeDDPGAllocator(Allocator):
    """DDPG trained directly against the real environment."""

    name = "rl"

    def __init__(
        self,
        training_steps: int = 1000,
        reset_interval: int = 25,
        updates_per_step: int = 1,
        config: Optional[DDPGConfig] = None,
        seed: int = 0,
        burst_probability: float = 0.3,
        burst_scale: float = 20.0,
    ):
        check_positive("training_steps", training_steps)
        check_positive("reset_interval", reset_interval)
        check_positive("updates_per_step", updates_per_step)
        if not 0 <= burst_probability <= 1:
            raise ValueError(
                f"burst_probability must lie in [0, 1], got {burst_probability!r}"
            )
        if burst_scale < 0:
            raise ValueError(f"burst_scale must be >= 0, got {burst_scale!r}")
        self.training_steps = training_steps
        self.reset_interval = reset_interval
        self.updates_per_step = updates_per_step
        self.config = config or DDPGConfig()
        self.seed = seed
        #: Burst-at-reset coverage, matching MirasConfig's collection
        #: protocol so the interaction budgets stay comparable.
        self.burst_probability = burst_probability
        self.burst_scale = burst_scale
        self.agent: Optional[DDPGAgent] = None
        self.episode_returns: List[float] = []

    def prepare(self, env: MicroserviceEnv) -> None:
        """Train with exactly ``training_steps`` real interactions."""
        self.bind(env)
        rng = RngStream("modelfree", np.random.SeedSequence(self.seed))
        self.agent = DDPGAgent(
            env.state_dim, env.action_dim, config=self.config, rng=rng
        )
        burst_rng = rng.fork("bursts")
        env.reset()
        state = env.inject_random_burst(
            burst_rng, self.burst_probability, self.burst_scale
        )
        episode_return = 0.0
        for step in range(self.training_steps):
            if step > 0 and step % self.reset_interval == 0:
                self.episode_returns.append(episode_return)
                episode_return = 0.0
                env.reset()
                state = env.inject_random_burst(
                    burst_rng, self.burst_probability, self.burst_scale
                )
                self.agent.refresh_perturbation()
            simplex = self.agent.act(state, explore=True)
            executed = allocation_from_simplex(
                simplex[np.newaxis], env.consumer_budget
            )[0]
            next_state, reward, _ = env.step(executed)
            self.agent.store(
                state, executed / env.consumer_budget, reward, next_state
            )
            if len(self.agent.replay) >= self.config.batch_size:
                self.agent.update_many(self.updates_per_step)
            state = next_state
            episode_return += reward
        self.episode_returns.append(episode_return)

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        if self.agent is None:
            raise RuntimeError("call prepare() before allocate()")
        simplex = self.agent.act_greedy(np.asarray(wip, dtype=np.float64))
        allocation = np.floor(self.budget * np.clip(simplex, 0, 1))
        return self._check(allocation.astype(np.int64))
