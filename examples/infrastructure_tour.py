#!/usr/bin/env python3
"""A tour of the emulated microservice workflow infrastructure (Fig. 1).

No learning here — this example exercises the substrate directly so you
can see the moving parts the paper's Section II/V describe:

- the TDS ensemble answering dependency queries (with a replica failure),
- queues with ack/redelivery,
- consumer scaling with container start-up latency,
- the two scale-down modes (graceful drain vs kill + redeliver),
- per-window observations and the Eq. (1) reward.

Run:  python examples/infrastructure_tour.py
"""

import numpy as np

from repro.sim import MicroserviceWorkflowSystem, SystemConfig
from repro.workflows import build_msd_ensemble


def main():
    ensemble = build_msd_ensemble()
    print(f"Ensemble {ensemble.name!r}: tasks {list(ensemble.task_names())}")
    for workflow in ensemble.workflow_types:
        edges = ", ".join(f"{up}->{down}" for up, down in workflow.edges)
        print(f"  {workflow.name}: {edges or ', '.join(workflow.tasks)}")
    system = MicroserviceWorkflowSystem(
        ensemble,
        SystemConfig(consumer_budget=14, scale_down_mode="kill"),
        seed=7,
    )

    # --- TDS: dependency lookups survive a replica failure ---------------
    print("TDS dependency queries (Fig. 2 analog):")
    for workflow in ensemble.workflow_names():
        entries = system.tds.entry_tasks(workflow)
        print(f"  {workflow}: entry={entries}")
    system.tds.fail_server(0)
    print(f"  replica 0 failed -> still serving: "
          f"{system.tds.successors('Type3', 'Preprocess')}")
    system.tds.recover_server(0)

    # --- Submit work and scale up ----------------------------------------
    print("\nSubmitting 30 Type3 workflows (Ingest->Preprocess->{Segment,Analyze}):")
    system.inject_burst({"Type3": 30})
    print(f"  WIP after injection: {system.wip_vector().astype(int).tolist()}")

    system.apply_allocation([4, 4, 3, 3])
    observation = system.run_window()
    print(f"  window 0: WIP={observation.wip.astype(int).tolist()} "
          f"reward={observation.reward:.0f} "
          f"(consumers took 5-10 s to start)")

    # --- Kill semantics: scale a busy service to zero ---------------------
    print("\nScaling Preprocess to zero mid-flight (kill mode):")
    preprocess = system.microservices["Preprocess"]
    before = preprocess.queue.redelivered_total
    system.apply_allocation([4, 0, 5, 5])
    redelivered = preprocess.queue.redelivered_total - before
    print(f"  {redelivered} in-flight request(s) nacked and redelivered "
          f"(none lost)")

    # Restore a sane allocation and let the burst finish.
    system.apply_allocation([3, 5, 3, 3])
    for _ in range(12):
        observation = system.run_window()
    print(f"\nAfter 13 windows: WIP={system.wip_vector().astype(int).tolist()}")
    print(f"  workflows completed: {system.invoker.completed_total}/30")
    print(f"  request conservation holds: {system.conservation_ok()}")

    # --- Cluster state -----------------------------------------------------
    print(f"\nCluster load by node: {system.cluster.load_by_node()}")
    print(f"TDS reads per replica: {system.tds.read_distribution()}")


if __name__ == "__main__":
    main()
