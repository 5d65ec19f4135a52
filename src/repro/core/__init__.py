"""MIRAS: model-based reinforcement learning for resource allocation.

The paper's primary contribution (Sections III–IV):

- :mod:`repro.core.dataset` — the interaction dataset D of
  (s(k), a(k), s(k+1)) tuples,
- :mod:`repro.core.environment_model` — the neural performance model
  f̂_Φ(s, a) → ŝ' trained by one-step square error (Eq. 2),
- :mod:`repro.core.refinement` — the Lend–Giveback boundary refinement
  (Algorithm 1),
- :mod:`repro.core.model_env` — a synthetic environment backed by the
  refined model, on which the DDPG policy trains,
- :mod:`repro.core.agent` — the iterative model/policy training loop
  (Algorithm 2),
- :mod:`repro.core.config` — all hyper-parameters, with the paper's MSD
  and LIGO presets.
"""

from repro.core.agent import IterationResult, MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.persistence import load_agent, save_agent
from repro.core.refinement import RefinedModel
from repro.core.reward import reward_eq1

__all__ = [
    "MirasAgent",
    "IterationResult",
    "MirasConfig",
    "ModelConfig",
    "PolicyConfig",
    "TransitionDataset",
    "EnvironmentModel",
    "RefinedModel",
    "save_agent",
    "load_agent",
    "BatchedModelEnv",
    "reward_eq1",
]
