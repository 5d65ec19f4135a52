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

    from repro import quickstart_msd_agent
    agent, env = quickstart_msd_agent()
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
    "quickstart_msd_agent",
    "__version__",
]


def quickstart_msd_agent(seed: int = 0, fast: bool = True):
    """Build an MSD environment and train a MIRAS agent on it.

    Returns ``(agent, env)``.  With ``fast=True`` (default) the scaled-down
    schedule runs in seconds; ``fast=False`` runs the paper's schedule.
    """
    from repro.workload import MSD_BACKGROUND_RATES, PoissonArrivalProcess

    ensemble = build_msd_ensemble()
    system = MicroserviceWorkflowSystem(
        ensemble, SystemConfig(consumer_budget=14), seed=seed
    )
    PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    env = MicroserviceEnv(system)
    config = MirasConfig.msd_fast() if fast else MirasConfig.msd_paper()
    agent = MirasAgent(env, config, seed=seed)
    agent.iterate()
    return agent, env
