#!/usr/bin/env python3
"""Bring your own workflow ensemble.

The paper notes MIRAS "could also be easily adapted to other microservice
systems" (Section I).  This example defines a custom genomics-flavoured
ensemble from scratch — task types, DAG topologies, arrival rates — and
runs the full pipeline on it: emulation, MIRAS training, and a comparison
against the WIP-proportional heuristic on a burst.

Run:  python examples/custom_workflow.py
"""

import numpy as np

from repro.baselines import MirasAllocator, ProportionalToWipAllocator
from repro.core import MirasAgent, MirasConfig
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim.system import SystemConfig
from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType
from repro.workload.bursts import BurstScenario


def build_genomics_ensemble() -> WorkflowEnsemble:
    """A small genomics pipeline: align/variant-call/annotate flows."""
    task_types = [
        TaskType("QC", 1.5, cv=0.3),          # read quality control
        TaskType("Align", 5.0, cv=0.6),       # reference alignment
        TaskType("CallVariants", 4.0, cv=0.5),
        TaskType("Annotate", 2.5, cv=0.4),
        TaskType("Report", 1.0, cv=0.3),
    ]
    workflow_types = [
        # Fast QC-only screening.
        WorkflowType("Screen", edges=[("QC", "Report")]),
        # Standard variant-calling pipeline.
        WorkflowType(
            "CallPipeline",
            edges=[
                ("QC", "Align"),
                ("Align", "CallVariants"),
                ("CallVariants", "Annotate"),
                ("Annotate", "Report"),
            ],
        ),
        # Re-annotation of existing calls (skips alignment).
        WorkflowType(
            "Reannotate",
            edges=[("CallVariants", "Annotate"), ("Annotate", "Report")],
        ),
    ]
    return WorkflowEnsemble("Genomics", task_types, workflow_types)


def main():
    ensemble = build_genomics_ensemble()
    budget = 16
    rates = {"Screen": 0.10, "CallPipeline": 0.05, "Reannotate": 0.04}
    print(f"Custom ensemble: {ensemble!r}")
    # Each task of a workflow is visited once per request (AND-join DAG).
    demand = {t.name: 0.0 for t in ensemble.task_types}
    for workflow in ensemble.workflow_types:
        for task in workflow.tasks:
            demand[task] += rates[workflow.name] * ensemble.task(task).mean_service_time
    print("Steady-state demand (consumer-seconds/second):")
    for task, load in demand.items():
        print(f"  {task:14s} {load:.2f}")
    print(f"Total {sum(demand.values()):.2f} of budget {budget}\n")

    # Train MIRAS on the custom system.
    env = make_env(
        ensemble,
        config=SystemConfig(consumer_budget=budget),
        seed=0,
        background_rates=rates,
    )
    config = MirasConfig.msd_fast()  # schedule shape transfers as-is
    agent = MirasAgent(env, config, seed=0)
    print("Training MIRAS on the genomics ensemble...")
    agent.iterate(verbose=True)

    # Head-to-head on a submission burst.
    scenario = BurstScenario(
        "genomics-burst",
        {"Screen": 100, "CallPipeline": 60, "Reannotate": 40},
        rates,
    )
    print("\nBurst evaluation (20 windows):")
    for allocator in (MirasAllocator(agent=agent), ProportionalToWipAllocator()):
        eval_env = make_env(
            ensemble,
            config=SystemConfig(consumer_budget=budget),
            seed=100,
            background_rates=rates,
        )
        result = evaluate_allocator(allocator, eval_env, scenario, steps=20)
        print(
            f"  {allocator.name:18s} aggregated reward "
            f"{result.aggregated_reward():10.0f}   completions "
            f"{result.total_completions():4d}   final WIP "
            f"{result.wip_series()[-1]:.0f}"
        )


if __name__ == "__main__":
    main()
