"""Task Dependency Service (Zookeeper-ensemble analog).

The paper uses three Zookeeper nodes as TDS servers "to increase
availability": the TDS stores each workflow type's task-dependency table
(Fig. 2) and answers two queries — which tasks start a workflow (step 1 of
Fig. 1) and which tasks follow a completed task (step 4).

We model an ensemble of replica servers with majority-quorum reads: a read
succeeds while a majority of replicas are up, round-robining across healthy
replicas (load distribution).  Replica failure/recovery is scriptable so
tests can exercise failover.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.workflows.dag import WorkflowEnsemble

__all__ = [
    "TaskDependencyService",
    "TdsServer",
    "TdsUnavailableError",
    "CompiledDependencyTable",
]


class TdsUnavailableError(RuntimeError):
    """Raised when fewer than a majority of TDS replicas are up."""


class TdsServer:
    """One replica holding a full copy of the dependency tables.

    A record: availability and load accounting belong to the owning
    :class:`TaskDependencyService`, which is the only writer of ``up``
    (``fail_server``/``recover_server`` keep its down-replica count in
    step — assigning ``up`` from outside raises) and which brings
    ``reads_served`` up to date whenever the replicas are handed out
    (see :attr:`TaskDependencyService.servers`).
    """

    __slots__ = ("server_id", "_up", "reads_served")

    def __init__(self, server_id: int):
        self.server_id = server_id
        self._up = True
        self.reads_served = 0

    @property
    def up(self) -> bool:
        return self._up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "down"
        return f"TdsServer(id={self.server_id}, {state})"


class TaskDependencyService:
    """Replicated dependency store with majority-quorum availability.

    Read accounting is O(1) while every replica is up: a read only
    advances the round-robin pointer, and the per-replica
    ``reads_served`` counts are derived from the pointer when somebody
    can look at them (:attr:`servers`, :meth:`read_distribution`) or
    when the replica set is about to change (:meth:`fail_server`).
    With a replica down every read is replayed one by one — quorum
    check, skip pattern and counts are those of sequential reads (the
    per-read reference lives in tests/sim/reference_tds.py; the
    contract is stated in docs/SIMULATOR.md).
    """

    def __init__(self, ensemble: WorkflowEnsemble, replicas: int = 3):
        if replicas < 1:
            raise ValueError(f"need at least one TDS replica, got {replicas}")
        self.ensemble = ensemble
        #: The dependency tables' contents, compiled once; both
        #: invokers route from it and account their reads here.
        self.table = CompiledDependencyTable(ensemble)
        self._servers: List[TdsServer] = [TdsServer(i) for i in range(replicas)]
        self._down = 0
        self._next = 0
        #: Pointer value up to which ``reads_served`` is materialised;
        #: equals ``_next`` whenever a replica is down (those reads are
        #: credited one by one).
        self._counted = 0

    # Availability management --------------------------------------------
    @property
    def servers(self) -> List[TdsServer]:
        """The replicas, with ``reads_served`` up to date."""
        self._materialise()
        return self._servers

    @property
    def quorum(self) -> int:
        return len(self._servers) // 2 + 1

    @property
    def healthy_count(self) -> int:
        return len(self._servers) - self._down

    def fail_server(self, server_id: int) -> None:
        """Take one replica down (test/chaos hook)."""
        server = self._server(server_id)
        if server._up:
            self._materialise()
            server._up = False
            self._down += 1

    def recover_server(self, server_id: int) -> None:
        """Bring one replica back."""
        server = self._server(server_id)
        if not server._up:
            server._up = True
            self._down -= 1

    def _server(self, server_id: int) -> TdsServer:
        for server in self._servers:
            if server.server_id == server_id:
                return server
        raise KeyError(f"no TDS replica with id {server_id}")

    def _materialise(self) -> None:
        """Credit the reads since ``_counted`` to the replicas that
        served them: with every replica up, read ``k`` went to replica
        ``k % replicas``."""
        pending = self._next - self._counted
        if pending:
            servers = self._servers
            replicas = len(servers)
            start = self._counted % replicas
            base, extra = divmod(pending, replicas)
            for offset, server in enumerate(servers):
                server.reads_served += base + (
                    1 if (offset - start) % replicas < extra else 0
                )
            self._counted = self._next

    def _pick(self) -> TdsServer:
        """One read with a replica down: quorum check, then round-robin
        over the healthy replicas."""
        servers = self._servers
        replicas = len(servers)
        if self.healthy_count < self.quorum:
            raise TdsUnavailableError(
                f"only {self.healthy_count}/{replicas} TDS replicas "
                f"up; quorum is {self.quorum}"
            )
        for _ in range(replicas):
            server = servers[self._next % replicas]
            self._next += 1
            if server._up:
                return server
        raise TdsUnavailableError("no healthy TDS replica found")  # pragma: no cover

    # Queries -------------------------------------------------------------
    def entry_tasks(self, workflow_type: str) -> Tuple[str, ...]:
        """First task(s) of a workflow (step 1 of Fig. 1)."""
        self.account_reads(1)
        return self.ensemble.workflow(workflow_type).entry_tasks

    def successors(self, workflow_type: str, task: str) -> Tuple[str, ...]:
        """Subsequent task(s) after ``task`` completes (step 4 of Fig. 1)."""
        self.account_reads(1)
        return self.ensemble.workflow(workflow_type).successors(task)

    def predecessors(self, workflow_type: str, task: str) -> Tuple[str, ...]:
        """Prerequisite tasks of ``task`` (AND-join synchronisation check)."""
        self.account_reads(1)
        return self.ensemble.workflow(workflow_type).predecessors(task)

    def read_distribution(self) -> Dict[int, int]:
        """Reads served per replica (for load-balance assertions)."""
        return {s.server_id: s.reads_served for s in self.servers}

    def account_reads(self, count: int) -> None:
        """Account ``count`` dependency reads, as ``count`` sequential
        single reads would be.

        Both invokers answer dependency queries from the compiled
        :attr:`table` and pair every lookup with this call, so the
        *availability and load accounting* stays that of a replica
        round trip per read: the same quorum check, the same
        round-robin pointer advance, the same per-replica
        ``reads_served`` counts.  With every replica up that is one
        addition (a majority is up by definition, and the counts follow
        from the pointer); with any replica down the round-robin skip
        pattern is replayed read by read.
        """
        if count <= 0:
            if count < 0:
                raise ValueError(
                    f"read count must be non-negative, got {count}"
                )
            # A zero-read batch mirrors zero serial reads: no quorum
            # check, no pointer movement.
            return
        if not self._down:
            self._next += count
            return
        for _ in range(count):
            self._pick().reads_served += 1
        self._counted = self._next

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskDependencyService(replicas={len(self._servers)}, "
            f"healthy={self.healthy_count})"
        )


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

    Availability semantics stay with :class:`TaskDependencyService` —
    the compiled table is a cache of its *contents*, and the invokers
    pair every lookup with :meth:`TaskDependencyService.account_reads`.
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
