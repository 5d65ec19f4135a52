"""MIRAS reproduction: model-based RL for microservice resource allocation.

A from-scratch Python reproduction of Yang, Nguyen, Jin & Nahrstedt,
"MIRAS: Model-based Reinforcement Learning for Microservice Resource
Allocation over Scientific Workflows" (ICDCS 2019), including:

- the emulated microservice workflow infrastructure (:mod:`repro.sim`),
- the MSD and LIGO workflow ensembles (:mod:`repro.workflows`),
- workload generation (:mod:`repro.workload`),
- a from-scratch neural-network stack (:mod:`repro.nn`),
- DDPG with parameter-space exploration noise (:mod:`repro.rl`),
- MIRAS itself -- environment model, Lend-Giveback refinement, iterative
  model-based training (:mod:`repro.core`),
- the paper's comparison baselines (:mod:`repro.baselines`),
- the per-figure experiment harness (:mod:`repro.eval`).

Quickstart::

    from repro import MirasAgent, MirasConfig
    from repro.eval.experiments import preset_env

    env = preset_env("msd", 0)
    agent = MirasAgent(env, MirasConfig.msd_fast(), seed=0)
    agent.iterate()
    print([r.eval_reward for r in agent.results])
"""

from repro.core import MirasAgent, MirasConfig
from repro.sim import MicroserviceEnv, MicroserviceWorkflowSystem, SystemConfig
from repro.workflows import build_ligo_ensemble, build_msd_ensemble

__version__ = "1.0.0"

__all__ = [
    "MirasAgent",
    "MirasConfig",
    "MicroserviceWorkflowSystem",
    "MicroserviceEnv",
    "SystemConfig",
    "build_msd_ensemble",
    "build_ligo_ensemble",
    "__version__",
]

