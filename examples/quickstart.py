#!/usr/bin/env python3
"""Quickstart: train MIRAS on the MSD workload and deploy it on a burst.

This walks the full pipeline of the paper in a few seconds:

1. build the emulated microservice workflow system (MSD ensemble, C=14),
2. attach a Poisson background workload,
3. run the iterative model-based RL procedure (Algorithm 2, scaled down),
4. deploy the learnt policy against a request burst and watch it drain.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    MicroserviceEnv,
    MicroserviceWorkflowSystem,
    MirasAgent,
    MirasConfig,
    SystemConfig,
    build_msd_ensemble,
)
from repro.workload import MSD_BACKGROUND_RATES, PoissonArrivalProcess


def main():
    # 1. The emulated infrastructure: dependency routing, queues, consumers.
    ensemble = build_msd_ensemble()
    system = MicroserviceWorkflowSystem(
        ensemble, SystemConfig(consumer_budget=14), seed=0
    )
    print(f"Built {system!r}")
    print(f"  task types (microservices): {ensemble.task_names()}")
    print(f"  workflow types:             {ensemble.workflow_names()}")

    # 2. Background Poisson workload (Section VI-A1).
    PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    env = MicroserviceEnv(system)

    # 3. MIRAS: iterate model learning <-> policy learning (Algorithm 2).
    #    msd_fast() is the scaled-down schedule; use MirasConfig.msd_paper()
    #    for the paper's full 12x1000-step run.
    agent = MirasAgent(env, MirasConfig.msd_fast(), seed=0)
    print("\nTraining (Algorithm 2)...")
    agent.iterate(verbose=True)
    print(f"training trace (eval reward/iteration): "
          f"{[round(r.eval_reward, 1) for r in agent.results]}")

    # 4. Deploy: inject a burst and let the policy drain it.
    print("\nDeploying the learnt policy on a 150-request burst:")
    state = env.reset()
    system.inject_burst({"Type1": 60, "Type2": 40, "Type3": 50})
    state = env.observe()
    for step in range(20):
        allocation = agent.act(state)
        state, reward, observation = env.step(allocation)
        print(
            f"  window {step:2d}: allocation={allocation.tolist()} "
            f"WIP={state.astype(int).tolist()} "
            f"completed={observation.total_completions}"
        )
    print(f"\nAll requests conserved: {system.conservation_ok()}")


if __name__ == "__main__":
    main()
