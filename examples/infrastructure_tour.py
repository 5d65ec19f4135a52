#!/usr/bin/env python3
"""A tour of the emulated microservice workflow infrastructure (Fig. 1).

No learning here — this example exercises the substrate directly so you
can see the moving parts the paper's Section II/V describe:

- the TDS's dependency tables routing each workflow's tasks,
- queues with ack/redelivery (a crashed container's request comes back),
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

    # --- TDS: the dependency tables the invoker routes from --------------
    print("TDS dependency queries (Fig. 2 analog):")
    table = system.table
    for w, workflow in enumerate(table.workflow_names):
        print(f"  {workflow}: entry={table.entry_names[w]}")
    after = [successor for successor, _ in table.routes["Type3", "Preprocess"]]
    print(f"  Type3 after Preprocess -> {after}")

    # --- Submit work and scale up ----------------------------------------
    print("\nSubmitting 30 Type3 workflows (Ingest->Preprocess->{Segment,Analyze}):")
    system.inject_burst({"Type3": 30})
    print(f"  WIP after injection: {system.wip_vector().astype(int).tolist()}")

    system.apply_allocation([4, 4, 3, 3])
    observation = system.run_window()
    print(f"  window 0: WIP={observation.wip.astype(int).tolist()} "
          f"reward={observation.reward:.0f} "
          f"(consumers took 5-10 s to start)")

    # --- A container crash: its request is redelivered --------------------
    preprocess = system.microservices["Preprocess"]
    before = preprocess.redelivered_total
    crashed = preprocess.crash_one()
    print(f"\nCrashed one Preprocess container: {crashed}; "
          f"{preprocess.redelivered_total - before} request(s) redelivered, "
          f"replacement starting ({preprocess.starting_consumers} starting)")

    # --- Kill semantics: scale a busy service to zero ---------------------
    print("\nScaling Preprocess to zero mid-flight (kill mode):")
    before = preprocess.redelivered_total
    system.apply_allocation([4, 0, 5, 5])
    redelivered = preprocess.redelivered_total - before
    print(f"  {redelivered} in-flight request(s) nacked and redelivered "
          f"(none lost)")

    # Restore a sane allocation and let the burst finish.
    system.apply_allocation([3, 5, 3, 3])
    for _ in range(12):
        observation = system.run_window()
    print(f"\nAfter 13 windows: WIP={system.wip_vector().astype(int).tolist()}")
    print(f"  workflows completed: {system.invoker.completed_total}/30")
    print(f"  request conservation holds: {system.conservation_ok()}")


if __name__ == "__main__":
    main()
