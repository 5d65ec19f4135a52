"""Workflow DAG model.

A *task type* is the unit that becomes a microservice (one request queue +
a consumer pool).  A *workflow type* is a DAG over a subset of the ensemble's
task types; requests of that workflow traverse the DAG with AND-join
semantics (a task becomes ready once **all** its predecessors in the same
workflow instance have completed — the paper's "wait for synchronization
signal").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["TaskType", "WorkflowType", "WorkflowEnsemble"]


@dataclass(frozen=True)
class TaskType:
    """A task type / microservice definition.

    Parameters
    ----------
    name:
        Unique task-type name within the ensemble.
    mean_service_time:
        Mean per-request processing time of one consumer, in seconds.
    cv:
        Coefficient of variation of the service time (lognormal sampling);
        the paper notes processing time varies with input data size.
    """

    name: str
    mean_service_time: float
    cv: float = 0.5

    def __post_init__(self):
        if not self.name:
            raise ValueError("task type name must be non-empty")
        check_positive("mean_service_time", self.mean_service_time)
        check_non_negative("cv", self.cv)
        # Finite too: then no service time drawn is NaN or negative, and
        # a microservice may push its finish rows straight onto the
        # event heap, past the loop's own delay guard.
        for name, value in (
            ("mean_service_time", self.mean_service_time), ("cv", self.cv)
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


class WorkflowType:
    """A workflow type: a DAG over task-type names.

    Parameters
    ----------
    name:
        Workflow type name (e.g. ``Type1`` or ``CAT``).
    edges:
        ``(upstream, downstream)`` task-name pairs.
    tasks:
        All task names in the workflow.  Optional if every task appears in
        an edge; required for single-task workflows.
    """

    def __init__(
        self,
        name: str,
        edges: Iterable[Tuple[str, str]],
        tasks: Iterable[str] = (),
    ):
        if not name:
            raise ValueError("workflow type name must be non-empty")
        self.name = name
        self.edges: List[Tuple[str, str]] = list(edges)
        task_set = set(tasks)
        for up, down in self.edges:
            if up == down:
                raise ValueError(f"self-loop on task {up!r} in workflow {name!r}")
            task_set.add(up)
            task_set.add(down)
        if not task_set:
            raise ValueError(f"workflow {name!r} has no tasks")
        self.tasks: FrozenSet[str] = frozenset(task_set)

        self._successors: Dict[str, List[str]] = {t: [] for t in self.tasks}
        self._predecessors: Dict[str, List[str]] = {t: [] for t in self.tasks}
        seen = set()
        for up, down in self.edges:
            if (up, down) in seen:
                raise ValueError(
                    f"duplicate edge {up!r}->{down!r} in workflow {name!r}"
                )
            seen.add((up, down))
            self._successors[up].append(down)
            self._predecessors[down].append(up)

        self._order = self._topological_order()
        self.entry_tasks: Tuple[str, ...] = tuple(
            t for t in self._order if not self._predecessors[t]
        )
        self.exit_tasks: Tuple[str, ...] = tuple(
            t for t in self._order if not self._successors[t]
        )

    # ------------------------------------------------------------------
    def _topological_order(self) -> List[str]:
        """Kahn's algorithm; raises on cycles."""
        in_degree = {t: len(self._predecessors[t]) for t in self.tasks}
        frontier = sorted(t for t, d in in_degree.items() if d == 0)
        order: List[str] = []
        while frontier:
            task = frontier.pop(0)
            order.append(task)
            for succ in self._successors[task]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    frontier.append(succ)
            frontier.sort()
        if len(order) != len(self.tasks):
            raise ValueError(f"workflow {self.name!r} contains a cycle")
        return order

    def successors(self, task: str) -> Tuple[str, ...]:
        """Tasks published when ``task`` completes (before AND-join check)."""
        self._check_task(task)
        return tuple(self._successors[task])

    def predecessors(self, task: str) -> Tuple[str, ...]:
        """Tasks that must complete before ``task`` becomes ready."""
        self._check_task(task)
        return tuple(self._predecessors[task])

    def topological_order(self) -> Tuple[str, ...]:
        """Tasks in a deterministic topological order."""
        return tuple(self._order)

    def _check_task(self, task: str) -> None:
        if task not in self.tasks:
            raise KeyError(f"task {task!r} not in workflow {self.name!r}")

    @property
    def size(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkflowType({self.name!r}, tasks={len(self.tasks)})"


@dataclass
class WorkflowEnsemble:
    """A named set of workflow types sharing a pool of task types.

    This corresponds to one of the paper's "workflow computing ensembles"
    (MSD or LIGO): the ``J`` task types become microservices, the ``N``
    workflow types define routing.
    """

    name: str
    task_types: Sequence[TaskType]
    workflow_types: Sequence[WorkflowType]
    _task_index: Dict[str, int] = field(init=False, repr=False)
    _workflow_index: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        names = [t.name for t in self.task_types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task types in ensemble {self.name!r}")
        wf_names = [w.name for w in self.workflow_types]
        if len(set(wf_names)) != len(wf_names):
            raise ValueError(f"duplicate workflow types in ensemble {self.name!r}")
        if not self.workflow_types:
            raise ValueError(f"ensemble {self.name!r} has no workflow types")
        known = set(names)
        for wf in self.workflow_types:
            missing = wf.tasks - known
            if missing:
                raise ValueError(
                    f"workflow {wf.name!r} references unknown task types "
                    f"{sorted(missing)}"
                )
        self._task_index = {n: i for i, n in enumerate(names)}
        self._workflow_index = {n: i for i, n in enumerate(wf_names)}

    # ------------------------------------------------------------------
    @property
    def num_task_types(self) -> int:
        """``J`` in the paper's notation."""
        return len(self.task_types)

    def task_index(self, name: str) -> int:
        """Stable index of a task type (the dimension in w(k)/m(k))."""
        try:
            return self._task_index[name]
        except KeyError:
            raise KeyError(f"unknown task type {name!r}") from None

    def workflow_index(self, name: str) -> int:
        """Stable index of a workflow type (the dimension in d(k))."""
        try:
            return self._workflow_index[name]
        except KeyError:
            raise KeyError(f"unknown workflow type {name!r}") from None

    def task(self, name: str) -> TaskType:
        return self.task_types[self.task_index(name)]

    def workflow(self, name: str) -> WorkflowType:
        return self.workflow_types[self.workflow_index(name)]

    def task_names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.task_types)

    def workflow_names(self) -> Tuple[str, ...]:
        return tuple(w.name for w in self.workflow_types)

    def mean_service_times(self) -> Dict[str, float]:
        return {t.name: t.mean_service_time for t in self.task_types}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkflowEnsemble({self.name!r}, J={self.num_task_types}, "
            f"N={self.num_workflow_types})"
        )
