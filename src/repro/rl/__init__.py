"""Deep deterministic policy gradient (DDPG) with parameter-space noise.

Re-implements the two cited algorithms MIRAS builds on:

- **DDPG** (Lillicrap et al., ICLR 2016) — actor-critic over continuous
  actions with target networks and a replay buffer,
- **parameter-space noise for exploration** (Plappert et al., ICLR 2018) —
  adaptive Gaussian perturbation of the *policy weights* instead of the
  output action, which is what lets MIRAS explore without violating the
  consumer-budget constraint (Section IV-D).
"""

from repro.rl.actor import Actor
from repro.rl.critic import Critic
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.noise import (
    AdaptiveParameterNoise,
    GaussianActionNoise,
    project_to_simplex,
)
from repro.rl.replay import ReplayBuffer

__all__ = [
    "Actor",
    "Critic",
    "DDPGAgent",
    "DDPGConfig",
    "ReplayBuffer",
    "AdaptiveParameterNoise",
    "GaussianActionNoise",
    "project_to_simplex",
]
