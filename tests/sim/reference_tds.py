"""The TDS read accounting as it ran before reads became O(1).

Kept in ``tests/`` as the reference the production
:class:`repro.sim.tds.TaskDependencyService` is held to: every read
walks ``_pick`` -- quorum check over the replicas, round-robin skip of
the ones that are down -- and bumps the chosen replica's
``reads_served`` on the spot.  The classes below are the pre-rewrite
code verbatim (names prefixed, nothing else touched);
tests/sim/test_tds_accounting.py drives both through random operation
sequences and requires identical counts, pointer and failure points.
"""

from typing import Dict, List, Tuple

from repro.sim.tds import TdsUnavailableError
from repro.workflows.dag import WorkflowEnsemble


class ReferenceTdsServer:
    """One replica holding a full copy of the dependency tables."""

    def __init__(self, server_id: int, ensemble: WorkflowEnsemble):
        self.server_id = server_id
        self._ensemble = ensemble
        self.up = True
        self.reads_served = 0

    def entry_tasks(self, workflow_type: str) -> Tuple[str, ...]:
        self._check_up()
        self.reads_served += 1
        return self._ensemble.workflow(workflow_type).entry_tasks

    def successors(self, workflow_type: str, task: str) -> Tuple[str, ...]:
        self._check_up()
        self.reads_served += 1
        return self._ensemble.workflow(workflow_type).successors(task)

    def predecessors(self, workflow_type: str, task: str) -> Tuple[str, ...]:
        self._check_up()
        self.reads_served += 1
        return self._ensemble.workflow(workflow_type).predecessors(task)

    def _check_up(self) -> None:
        if not self.up:
            raise TdsUnavailableError(f"TDS replica {self.server_id} is down")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"ReferenceTdsServer(id={self.server_id}, {state})"


class ReferenceTaskDependencyService:
    """Replicated dependency store with majority-quorum availability."""

    def __init__(self, ensemble: WorkflowEnsemble, replicas: int = 3):
        if replicas < 1:
            raise ValueError(f"need at least one TDS replica, got {replicas}")
        self.ensemble = ensemble
        self.servers: List[ReferenceTdsServer] = [
            ReferenceTdsServer(i, ensemble) for i in range(replicas)
        ]
        self._next = 0

    # Availability management --------------------------------------------
    @property
    def quorum(self) -> int:
        return len(self.servers) // 2 + 1

    @property
    def healthy_count(self) -> int:
        return sum(1 for s in self.servers if s.up)

    def fail_server(self, server_id: int) -> None:
        """Take one replica down (test/chaos hook)."""
        self._server(server_id).up = False

    def recover_server(self, server_id: int) -> None:
        """Bring one replica back."""
        self._server(server_id).up = True

    def _server(self, server_id: int) -> ReferenceTdsServer:
        for server in self.servers:
            if server.server_id == server_id:
                return server
        raise KeyError(f"no TDS replica with id {server_id}")

    def _pick(self) -> ReferenceTdsServer:
        if self.healthy_count < self.quorum:
            raise TdsUnavailableError(
                f"only {self.healthy_count}/{len(self.servers)} TDS replicas "
                f"up; quorum is {self.quorum}"
            )
        # Round-robin over healthy replicas.
        for _ in range(len(self.servers)):
            server = self.servers[self._next % len(self.servers)]
            self._next += 1
            if server.up:
                return server
        raise TdsUnavailableError("no healthy TDS replica found")  # pragma: no cover

    # Queries -------------------------------------------------------------
    def entry_tasks(self, workflow_type: str) -> Tuple[str, ...]:
        """First task(s) of a workflow (step 1 of Fig. 1)."""
        return self._pick().entry_tasks(workflow_type)

    def successors(self, workflow_type: str, task: str) -> Tuple[str, ...]:
        """Subsequent task(s) after ``task`` completes (step 4 of Fig. 1)."""
        return self._pick().successors(workflow_type, task)

    def predecessors(self, workflow_type: str, task: str) -> Tuple[str, ...]:
        """Prerequisite tasks of ``task`` (AND-join synchronisation check)."""
        return self._pick().predecessors(workflow_type, task)

    def read_distribution(self) -> Dict[int, int]:
        """Reads served per replica (for load-balance assertions)."""
        return {s.server_id: s.reads_served for s in self.servers}

    # Batched accounting ---------------------------------------------------
    def account_reads(self, count: int) -> None:
        """Account ``count`` dependency reads answered from a local table.

        The batched substrate answers dependency queries from a
        :class:`CompiledDependencyTable` instead of round-tripping
        through a replica per read, but the *availability and load
        accounting* must stay observably identical to ``count``
        sequential reads: the same quorum check, the same round-robin
        pointer advance, the same per-replica ``reads_served`` counts.
        With every replica up that collapses to arithmetic; with any
        replica down the round-robin skip pattern is replayed read by
        read.
        """
        if count < 0:
            raise ValueError(f"read count must be non-negative, got {count}")
        servers = self.servers
        replicas = len(servers)
        if count == 0:
            # Even a zero-read batch mirrors zero serial reads: no
            # quorum check, no pointer movement.
            return
        if self.healthy_count == replicas:
            start = self._next % replicas
            base, extra = divmod(count, replicas)
            for offset, server in enumerate(servers):
                server.reads_served += base + (
                    1 if (offset - start) % replicas < extra else 0
                )
            self._next += count
            return
        for _ in range(count):
            self._pick().reads_served += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReferenceTaskDependencyService(replicas={len(self.servers)}, "
            f"healthy={self.healthy_count})"
        )
