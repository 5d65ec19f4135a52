"""Random layered-DAG ensemble generator.

Used by property-based tests (hypothesis strategies build on top of it) and
by the examples to demonstrate that MIRAS generalises beyond MSD/LIGO:
"this approach could also be easily adapted to other microservice systems"
(Section I).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.utils.rng import RngStream
from repro.utils.validation import check_positive
from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType

__all__ = ["random_ensemble", "random_workflow"]


def random_workflow(
    name: str,
    task_names: Tuple[str, ...],
    rng: RngStream,
    min_tasks: int = 2,
    edge_probability: float = 0.5,
) -> WorkflowType:
    """Sample a random DAG over a random subset of ``task_names``.

    The DAG is built over the subset in index order, adding each forward
    edge with ``edge_probability``; nodes that end up isolated are linked to
    their predecessor in the order, so the result is always connected enough
    to exercise the AND-join machinery.
    """
    if min_tasks < 1:
        raise ValueError(f"min_tasks must be >= 1, got {min_tasks}")
    if min_tasks > len(task_names):
        raise ValueError(
            f"min_tasks {min_tasks} exceeds available tasks {len(task_names)}"
        )
    size = int(rng.integers(min_tasks, len(task_names) + 1))
    chosen_idx = sorted(
        rng.choice(len(task_names), size=size, replace=False).tolist()
    )
    chosen = [task_names[i] for i in chosen_idx]
    edges: List[Tuple[str, str]] = []
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            if rng.uniform() < edge_probability:
                edges.append((chosen[i], chosen[j]))
    # Connect any node with no incident edge so the workflow is one piece.
    touched = {t for edge in edges for t in edge}
    for i, task in enumerate(chosen):
        if task not in touched and i > 0:
            edges.append((chosen[i - 1], task))
            touched.add(task)
            touched.add(chosen[i - 1])
    return WorkflowType(name, edges=edges, tasks=chosen)


def random_ensemble(
    num_task_types: int,
    num_workflow_types: int,
    seed: int = 0,
    mean_service_range: Tuple[float, float] = (1.0, 6.0),
) -> WorkflowEnsemble:
    """Sample a random workflow ensemble.

    Every task type is guaranteed to appear in at least one workflow (the
    generator retries until coverage holds), matching the paper's setting
    where the ``J`` task types are exactly the union over workflows.
    """
    check_positive("num_task_types", num_task_types)
    check_positive("num_workflow_types", num_workflow_types)
    rng = RngStream("ensemble", np.random.SeedSequence(seed))

    task_names = tuple(f"Task{i}" for i in range(num_task_types))
    low, high = mean_service_range
    if not 0 < low <= high:
        raise ValueError(f"bad mean_service_range {mean_service_range!r}")
    task_types = [
        TaskType(name, float(rng.uniform(low, high)), cv=float(rng.uniform(0.2, 0.8)))
        for name in task_names
    ]

    for attempt in range(50):
        workflows = [
            random_workflow(
                f"Workflow{i}",
                task_names,
                rng,
                min_tasks=min(2, num_task_types),
            )
            for i in range(num_workflow_types)
        ]
        covered = set().union(*(w.tasks for w in workflows))
        if covered == set(task_names):
            return WorkflowEnsemble(
                f"Random(J={num_task_types},N={num_workflow_types})",
                task_types,
                workflows,
            )
    # Deterministic fallback: add one chain workflow covering everything.
    workflows[-1] = WorkflowType(
        f"Workflow{num_workflow_types - 1}",
        edges=list(zip(task_names, task_names[1:])),
        tasks=task_names,
    )
    return WorkflowEnsemble(
        f"Random(J={num_task_types},N={num_workflow_types})",
        task_types,
        workflows,
    )
