"""Task Dependency Service (Zookeeper-ensemble analog): the dependency tables.

The paper keeps each workflow type's task-dependency table (Fig. 2) in
three Zookeeper nodes "to increase availability", and the invoker asks
it two questions: which tasks start a workflow (step 1 of Fig. 1) and
which tasks follow a completed task (step 4).  Only the answers reach
the state MIRAS observes, w(k): they decide which queue a request is
published to, and when.  So the tables are modelled and the replicas
are not.  A replica ensemble adds quorum checks and load balancing, and
neither moves a request, a queue or a clock; a majority outage would
stop routing, which no experiment of the paper injects.
:class:`CompiledDependencyTable` compiles the tables once per system,
and both invokers route from it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.workflows.dag import WorkflowEnsemble

__all__ = ["CompiledDependencyTable"]


class CompiledDependencyTable:
    """An ensemble's dependency tables, compiled once per system.

    One walk over the DAGs yields both substrates' routing.  The serial
    invoker reads the name-keyed tables (``entry_names``, ``routes``);
    the batched one integer-indexed flat arrays, so its hot path never
    touches strings or dicts:

    - tasks are global task-type indices (``ensemble.task_index`` order,
      the same order allocation vectors use),
    - within each workflow type, tasks also get a dense *local* index in
      ``topological_order`` position, addressing the per-instance
      AND-join counters of :class:`repro.sim.requests.RequestPool`,
    - successor lists preserve the DAG's edge insertion order, so
      publishes fire in exactly the order the serial invoker iterates
      ``successors(task)``.
    """

    def __init__(self, ensemble: WorkflowEnsemble):
        self.ensemble = ensemble
        task_names = ensemble.task_names()
        self.num_task_types = len(task_names)
        workflow_names = ensemble.workflow_names()
        self.workflow_names = workflow_names
        self.num_workflow_types = len(workflow_names)
        #: Max DAG size across workflow types (RequestPool row width).
        self.max_tasks = max(
            ensemble.workflow(w).size for w in workflow_names
        )
        # Per workflow type w (indexed by ensemble.workflow_index):
        self.size: List[int] = []
        #: Entry tasks as (local index, global task-type index) pairs.
        self.entries: List[Tuple[Tuple[int, int], ...]] = []
        #: local index -> global task-type index.
        self.task_of_local: List[np.ndarray] = []
        #: global task-type index -> local index (-1 when absent).
        self.local_of_task: List[np.ndarray] = []
        #: Remaining-predecessor counts per local index (int16).
        self.pred_counts: List[np.ndarray] = []
        #: Successors per local index, as (local, global) pairs in DAG
        #: edge order.
        self.successors: List[Tuple[Tuple[Tuple[int, int], ...], ...]] = []
        #: Entry task names (DAG order).
        self.entry_names: List[Tuple[str, ...]] = []
        #: (workflow name, task name) -> its successors in DAG edge
        #: order, each with the predecessors its AND-join waits for.
        self.routes: Dict[
            Tuple[str, str], Tuple[Tuple[str, Tuple[str, ...]], ...]
        ] = {}
        for w_name in workflow_names:
            workflow = ensemble.workflow(w_name)
            order = workflow.topological_order()
            local_index = {task: i for i, task in enumerate(order)}
            self.size.append(workflow.size)
            task_of_local = np.array(
                [ensemble.task_index(t) for t in order], dtype=np.int64
            )
            self.task_of_local.append(task_of_local)
            local_of_task = np.full(self.num_task_types, -1, dtype=np.int64)
            local_of_task[task_of_local] = np.arange(
                workflow.size, dtype=np.int64
            )
            self.local_of_task.append(local_of_task)
            self.entries.append(tuple(
                (local_index[t], ensemble.task_index(t))
                for t in workflow.entry_tasks
            ))
            self.pred_counts.append(np.array(
                [len(workflow.predecessors(t)) for t in order],
                dtype=np.int16,
            ))
            self.successors.append(tuple(
                tuple(
                    (local_index[s], ensemble.task_index(s))
                    for s in workflow.successors(t)
                )
                for t in order
            ))
            self.entry_names.append(workflow.entry_tasks)
            for t in order:
                self.routes[w_name, t] = tuple(
                    (s, workflow.predecessors(s))
                    for s in workflow.successors(t)
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledDependencyTable(workflows={self.num_workflow_types}, "
            f"tasks={self.num_task_types})"
        )
