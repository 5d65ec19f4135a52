"""Batched event substrate: the million-request simulator.

:class:`BatchedWorkflowSystem` is a drop-in subclass of
:class:`repro.sim.system.MicroserviceWorkflowSystem` that replaces the
object-per-request hot path with array-backed state:

- requests live in a :class:`repro.sim.requests.RequestPool`
  (struct-of-arrays, integer-indexed),
- queues are :class:`repro.sim.queueing.IndexFifo` index buffers,
- events are typed integer rows on a :class:`repro.sim.events.TypedEventLoop`,
- dependency routing runs on a
  :class:`repro.sim.tds.CompiledDependencyTable`.

The control surface (``apply_allocation``, ``run_window``, ``drain``,
``inject_burst``, observations, conservation checks) is inherited
unchanged.  Semantics are *event-for-event identical* to the serial
substrate: same seed, same scenario -> byte-identical traces and equal
:func:`repro.sim.substrate.substrate_snapshot` results.  The contract —
and the exact preconditions of the vectorised window fast path below —
is written down in docs/SIMULATOR.md and pinned by
tests/sim/test_batched_substrate.py.

Two execution tiers:

1. **Exact tier** — the typed event loop pops one event at a time and
   drives :class:`repro.sim.microservice.BatchedMicroservice` executors.
   Always available; handles tracing, scaling, faults, arrivals.
2. **Vectorised window replay** (the fast path) — whenever no tracer is
   attached and no opaque callback (chaos injector, a non-Poisson
   arrival process) is pending, the window is re-simulated
   arithmetically, one time slice of bounded work after another.  The
   Poisson arrivals due in the slice are pre-drawn; then one chain per
   microservice, in topological order of the task-type graph, takes
   every due row — task finishes, consumer start-ups, the last task of
   a terminating consumer — together with what is published to it
   during the slice (entry tasks of the arrivals, successors of the
   completions of the chains before it), with block-prefetched service
   draws; one global merge then replays workflow completions, queue
   counters and metrics with numpy.  What the replay cannot reproduce
   exactly (two events at one timestamp) *aborts the slice before any
   state mutation* — the RNG prefetches roll back, the popped rows are
   re-inserted, and the exact tier finishes the window from the last
   committed slice.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.sim.events import EVENT_ARRIVAL, EVENT_FINISH, TypedEventLoop
from repro.sim.microservice import _BUSY, _IDLE, _STOPPED, BatchedMicroservice
from repro.sim.requests import RequestPool
from repro.sim.substrate import PrefetchStream
from repro.sim.system import MicroserviceWorkflowSystem
from repro.sim.tds import CompiledDependencyTable, TaskDependencyService
from repro.utils.rng import RngStream

__all__ = ["BatchedWorkflowSystem", "BatchedInvoker"]

#: Expected task completions one replayed time slice is sized for
#: (:meth:`BatchedWorkflowSystem._slice_ends`).  The merge holds a few
#: dozen arrays of that length, so this bounds a replayed window's
#: footprint; every cut re-parks the in-flight tasks, so smaller slices
#: cost wall-clock (docs/PERFORMANCE.md has the measured trade-off).
_SLICE_COMPLETIONS = 16384


class _ArrivalStream(NamedTuple):
    """One registered Poisson request stream
    (:meth:`BatchedWorkflowSystem.add_arrival_stream`)."""

    #: The arrival process: ``active`` gates it, ``submitted`` counts.
    process: object
    workflow_type: str
    #: Workflow-type index, and the mean gap between requests (1 / rate).
    workflow: int
    scale: float
    prefetch: PrefetchStream


class _Arrivals(NamedTuple):
    """The arrivals of one replayed slice (:meth:`BatchedWorkflowSystem._draw_arrivals`)."""

    #: Per request, in arrival order: its time, stream, workflow type
    #: and the pool row appended for it.
    times: np.ndarray
    streams: np.ndarray
    wtypes: np.ndarray
    workflows: np.ndarray
    #: Per stream drawn: ``(first arrival past the end, stream, the
    #: arrival inside the slice that schedules it)``.
    pending: List[Tuple[float, int, float]]
    #: Times of due rows of stopped processes (events that do nothing).
    silent: List[float]


_NO_ARRIVALS = _Arrivals(
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    [],
    [],
)


class _Publishes(NamedTuple):
    """What is published to one microservice during a slice, in time
    order: per task its time, workflow and rank within the publishing
    event (successor-edge or entry-task position)."""

    times: np.ndarray
    workflows: np.ndarray
    subs: np.ndarray


_NO_PUBLISHES = _Publishes(
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


def _joined(parts, dtype=np.float64) -> np.ndarray:
    """``parts`` (arrays or lists, possibly none) as one array."""
    return np.concatenate(
        [np.asarray(part, dtype=dtype) for part in parts]
        + [np.empty(0, dtype=dtype)]
    )


def _merged_by_time(pieces: List[Tuple]) -> Tuple:
    """Column-wise concatenation of ``pieces`` — tuples of equally long
    arrays, each piece in time order by its first column — merged into
    one time order."""
    if len(pieces) == 1:
        return pieces[0]
    columns = [np.concatenate(column) for column in zip(*pieces)]
    order = np.argsort(columns[0], kind="stable")
    return tuple(column[order] for column in columns)


class _Chain(NamedTuple):
    """One microservice's replayed slice (:meth:`BatchedWorkflowSystem._chain`)."""

    #: Per completion, in time order: its time and the task's workflow.
    times: np.ndarray
    workflows: np.ndarray
    #: Times of the start-ups replayed, and of the events that
    #: dispatched nothing (a consumer stopped or found the queue empty).
    ready_times: List[float]
    quiet_times: List[float]
    #: Tasks taken off the queue.
    pops: int
    #: Of the dispatches that publishes made (the others are their
    #: events' own): the time and the rank within the publishing event.
    pub_act_times: np.ndarray
    pub_act_subs: np.ndarray
    #: Final ``(task, start, busy time, tasks completed)`` per slot touched.
    slots: Dict[int, Tuple[int, float, float, int]]
    #: ``(finish time, slot, pop, publish-made dispatch or -1)`` of the
    #: tasks in service past the end.
    parked: List[Tuple[float, int, int, int]]
    #: The idle heap at the end of the slice; slots that stopped.
    idle: List[int]
    stopped: List[int]
    #: What was published here during the slice.
    publishes: _Publishes


class BatchedInvoker:
    """Integer-indexed workflow invoker (Fig. 1 steps 1, 2 and 4).

    Mirrors :class:`repro.sim.invoker.WorkflowInvoker` exactly —
    submission order, TDS read accounting, AND-join publish points,
    completion detection — but addresses workflow instances by pool row
    and tasks by compiled-table indices.  The AND-join test is a
    countdown (``wf_pred_remaining`` hits zero) instead of the serial
    set-membership test; both fire at the same completion event.
    """

    def __init__(
        self,
        loop: TypedEventLoop,
        tds: TaskDependencyService,
        table: CompiledDependencyTable,
        pool: RequestPool,
        services: List[BatchedMicroservice],
        on_workflow_complete=None,
    ):
        self.loop = loop
        self.tds = tds
        self.table = table
        self.pool = pool
        self.services = services
        self.on_workflow_complete = on_workflow_complete
        self.submitted_total = 0
        self.completed_total = 0
        self._workflow_index = {
            name: i for i, name in enumerate(table.workflow_names)
        }
        self._task_names = list(table.ensemble.task_names())

    def workflow_index(self, workflow_type: str) -> int:
        try:
            return self._workflow_index[workflow_type]
        except KeyError:
            raise KeyError(f"unknown workflow type {workflow_type!r}") from None

    # Submission ------------------------------------------------------------
    def submit(self, workflow_type: str) -> int:
        """Steps 1–2 of Fig. 1; returns the workflow's pool row index."""
        w = self.workflow_index(workflow_type)
        table = self.table
        pool = self.pool
        now = self.loop.now
        wfi = pool.add_workflow(w, now, table.size[w], table.pred_counts[w])
        self.submitted_total += 1
        self.tds.account_reads(1)  # entry-tasks query
        for _local, g in table.entries[w]:
            ti = pool.add_task(g, wfi, now)
            self.services[g].publish(ti)
        return wfi

    # Completion routing ------------------------------------------------------
    def handle_task_completion(self, task: int, now: float) -> None:
        """Step 4 of Fig. 1: publish ready successors; detect completion."""
        pool = self.pool
        table = self.table
        wfi = int(pool.task_workflow[task])
        g = int(pool.task_type[task])
        w = int(pool.wf_type[wfi])
        local = int(table.local_of_task[w][g])
        if pool.wf_task_done[wfi, local]:
            raise RuntimeError(
                f"task {self._task_names[g]!r} completed twice for "
                f"workflow request {wfi}"
            )
        pool.wf_task_done[wfi, local] = 1

        self.tds.account_reads(1)  # successors query
        for s_local, s_g in table.successors[w][local]:
            self.tds.account_reads(1)  # predecessors query (AND-join check)
            remaining = int(pool.wf_pred_remaining[wfi, s_local]) - 1
            pool.wf_pred_remaining[wfi, s_local] = remaining
            if remaining == 0:
                ti = pool.add_task(s_g, wfi, self.loop.now)
                self.services[s_g].publish(ti)
            elif remaining < 0:  # pragma: no cover - double-completion guard
                raise RuntimeError(
                    f"AND-join counter underflow for workflow request {wfi}"
                )

        done = int(pool.wf_done_count[wfi]) + 1
        pool.wf_done_count[wfi] = done
        if done == int(pool.wf_total_tasks[wfi]):
            pool.wf_completion[wfi] = now
            self.completed_total += 1
            if self.on_workflow_complete is not None:
                self.on_workflow_complete(wfi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedInvoker(submitted={self.submitted_total}, "
            f"completed={self.completed_total})"
        )


class BatchedWorkflowSystem(MicroserviceWorkflowSystem):
    """Array-backed workflow system, semantics-equal to the serial one.

    Construction, control surface and observations are inherited; only
    the substrate (:meth:`_build_substrate`) and the window advance
    (:meth:`_advance_window`) differ.  ``fast_windows`` / ``fast_aborts``
    count vectorised replays and their fallbacks (``fast_abort_reasons``
    says why), ``fast_ineligible_reasons`` the windows never attempted,
    so benchmarks and tests can assert the fast path actually engaged.

    API deltas (documented in docs/SIMULATOR.md): :meth:`submit` and
    :meth:`inject_burst` return integer pool row indices instead of
    :class:`repro.sim.requests.WorkflowRequest` objects.
    """

    # Substrate wiring ----------------------------------------------------
    def _build_substrate(self) -> None:
        self.loop = TypedEventLoop()
        self.table = self.tds.table
        self.pool = RequestPool(self.table.max_tasks)
        self.microservices: Dict[str, BatchedMicroservice] = {}
        self._services: List[BatchedMicroservice] = []
        # Same insertion and RNG-fork order as the serial substrate:
        # ensemble.task_types order IS global task-index order.
        for g, task_type in enumerate(self.ensemble.task_types):
            ms = BatchedMicroservice(
                task_type,
                index=g,
                loop=self.loop,
                cluster=self.cluster,
                rng=self._rngs["service_times"].fork(task_type.name),
                pool=self.pool,
                on_task_complete=self._on_batched_task_complete,
                startup_delay_range=self.config.startup_delay_range,
                scale_down_mode=self.config.scale_down_mode,
                tracer=self.tracer,
            )
            self.microservices[task_type.name] = ms
            self._services.append(ms)
        self.invoker = BatchedInvoker(
            self.loop,
            self.tds,
            self.table,
            self.pool,
            self._services,
            on_workflow_complete=self._on_batched_workflow_complete,
        )
        self.loop.bind_executors(
            self._execute_finish, self._execute_ready, self._execute_arrival
        )
        self._arrivals: List[_ArrivalStream] = []
        self._task_names = list(self.ensemble.task_names())
        #: Windows advanced by the vectorised replay / aborted attempts.
        self.fast_windows = 0
        self.fast_aborts = 0
        #: Abort tallies by reason (diagnostics; see docs/SIMULATOR.md).
        self.fast_abort_reasons: Dict[str, int] = {}
        #: Why windows were not attempted at all, by reason.
        self.fast_ineligible_reasons: Dict[str, int] = {}
        self._build_fast_tables()

    def _execute_finish(self, ms_index: int, slot: int) -> None:
        self._services[ms_index].on_finished(slot)

    def _execute_ready(self, ms_index: int, slot: int) -> None:
        self._services[ms_index].on_ready(slot)

    # Workload interface -------------------------------------------------
    def add_arrival_stream(
        self, process, workflow_type: str, rate: float, rng: RngStream
    ) -> None:
        """Typed twin of the serial method: the stream's next request is
        an ``EVENT_ARRIVAL`` row — same draws, same ``seq`` numbers —
        which the exact tier executes and the window replay pre-draws."""
        self._arrival_rngs.append(rng)
        stream = _ArrivalStream(
            process,
            workflow_type,
            self.invoker.workflow_index(workflow_type),
            1.0 / rate,
            PrefetchStream(rng),
        )
        self._arrivals.append(stream)
        self.loop.schedule_arrival(
            stream.prefetch.exponential(stream.scale), len(self._arrivals) - 1
        )

    def _execute_arrival(self, index: int) -> None:
        stream = self._arrivals[index]
        if stream.process.active:
            self.submit(stream.workflow_type)
            stream.process.submitted += 1
            self.loop.schedule_arrival(
                stream.prefetch.exponential(stream.scale), index
            )

    def submit(self, workflow_type: str) -> int:
        """Submit one workflow request now; returns its pool row index."""
        wfi = self.invoker.submit(workflow_type)
        self._window_arrivals[workflow_type] = (
            self._window_arrivals.get(workflow_type, 0) + 1
        )
        if self.tracer.enabled:
            self._trace_request_ids[wfi] = self._requests_traced
            self.tracer.write({
                "kind": "event.arrival", "t": None,
                "workflow": workflow_type,
                "request_id": self._requests_traced,
            })
            self._requests_traced += 1
        return wfi

    def inject_burst(self, counts: Mapping[str, int]) -> List[int]:
        """Submit a burst immediately; returns pool row indices.

        Submissions that can trigger immediate dispatch (an entry queue
        has an idle consumer) or must emit per-request trace events go
        through the exact per-request path; the remainder is appended as
        whole arrays — workflow rows, task rows, TDS read accounting and
        queue contents land exactly as the per-request loop would leave
        them (see docs/SIMULATOR.md on burst-order equivalence).
        """
        pool = self.pool
        table = self.table
        requests: List[int] = []
        for workflow_type, count in counts.items():
            if count < 0:
                raise ValueError(
                    f"burst count for {workflow_type!r} must be >= 0, got {count}"
                )
            w = self.invoker.workflow_index(workflow_type)
            entry_services = [self._services[g] for _l, g in table.entries[w]]
            remaining = count
            while remaining and (
                self.tracer.enabled
                or any(ms.has_idle() for ms in entry_services)
            ):
                requests.append(self.submit(workflow_type))
                remaining -= 1
            if not remaining:
                continue
            now = self.loop.now
            first = pool.add_workflows(
                remaining, w, now, table.size[w], table.pred_counts[w]
            )
            wfis = np.arange(first, first + remaining, dtype=np.int64)
            self.invoker.submitted_total += remaining
            self.tds.account_reads(remaining)  # one entry-tasks query each
            for _local, g in table.entries[w]:
                tis = pool.add_tasks(
                    np.full(remaining, g, dtype=np.int32), wfis, now
                )
                self._services[g].publish_many(tis)
            self._window_arrivals[workflow_type] = (
                self._window_arrivals.get(workflow_type, 0) + remaining
            )
            requests.extend(wfis.tolist())
        return requests

    # Completion bookkeeping ----------------------------------------------
    def _on_batched_task_complete(self, task: int, now: float) -> None:
        pool = self.pool
        name = self._task_names[pool.task_type[task]]
        self._window_task_completions[name] = (
            self._window_task_completions.get(name, 0) + 1
        )
        if self.tracer.enabled:
            # Same emit point as the serial substrate's _on_task_complete:
            # after event.task_complete, before successor publishes.
            self.tracer.write({
                "kind": "event.task_span", "t": None,
                "service": name,
                "request_id": self._trace_request_ids.get(
                    int(pool.task_workflow[task]), -1
                ),
                "published": float(pool.task_published_at[task]),
                "started": float(pool.task_started_at[task]),
                "deliveries": int(pool.task_deliveries[task]),
                "wasted": float(pool.task_wasted_work[task]),
            })
        self.invoker.handle_task_completion(task, now)

    def _on_batched_workflow_complete(self, wfi: int) -> None:
        pool = self.pool
        wf_type = self.table.workflow_names[int(pool.wf_type[wfi])]
        self._window_completions[wf_type] = (
            self._window_completions.get(wf_type, 0) + 1
        )
        delay = float(pool.wf_completion[wfi] - pool.wf_arrival[wfi])
        self._window_response_times.append(delay)
        self._window_response_by_type.setdefault(wf_type, []).append(delay)
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.workflow_complete", "t": None,
                "workflow": wf_type,
                "request_id": self._trace_request_ids.pop(wfi, -1),
                "response_time": delay,
            })

    # Vectorised window replay ---------------------------------------------
    def _build_fast_tables(self) -> None:
        """Flatten the compiled dependency table for array lookups."""
        table = self.table
        num_w = table.num_workflow_types
        num_t = table.num_task_types
        #: (workflow type, global task index) -> local index (-1 absent).
        self._local_mat = np.full((num_w, num_t), -1, dtype=np.int16)
        #: Per workflow type: its size and its tasks' predecessor counts
        #: (the rows :meth:`RequestPool.add_workflows` writes).
        self._wf_size = np.asarray(table.size, dtype=np.int32)
        self._pred_mat = np.zeros((num_w, table.max_tasks), dtype=np.int16)
        #: (workflow type, global task index) -> position among the
        #: workflow's entry tasks (-1: not an entry task).
        self._entry_rank = np.full((num_w, num_t), -1, dtype=np.int64)
        # One CSR over node = workflow type * max_tasks + local index:
        # successor edges in DAG edge order, so an edge's position in its
        # node's run is the order the serial invoker publishes in.
        ptr = [0]
        locs: List[int] = []
        globs: List[int] = []
        joins: List[bool] = []
        succ: List[set] = [set() for _ in range(num_t)]
        for w in range(num_w):
            self._local_mat[w] = table.local_of_task[w]
            self._pred_mat[w, :table.size[w]] = table.pred_counts[w]
            for rank, (_local, g) in enumerate(table.entries[w]):
                self._entry_rank[w, g] = rank
            for local in range(table.max_tasks):
                if local < table.size[w]:
                    g = int(table.task_of_local[w][local])
                    for s_local, s_global in table.successors[w][local]:
                        locs.append(s_local)
                        globs.append(s_global)
                        joins.append(bool(table.pred_counts[w][s_local] > 1))
                        succ[g].add(s_global)
                ptr.append(len(locs))
        self._edge_ptr = np.array(ptr, dtype=np.int64)
        self._edge_local = np.array(locs, dtype=np.int16)
        self._edge_global = np.array(globs, dtype=np.int32)
        #: Edge targets an AND-join (more than one predecessor).
        self._edge_join = np.array(joins, dtype=bool)
        #: Services an arrival publishes entry tasks to.
        self._entry_targets = np.nonzero(
            (self._entry_rank >= 0).any(axis=0)
        )[0].tolist()
        #: Task-type-level graph (union over workflow types): each
        #: service's successors, and the services in a topological order
        #: of it — ``None`` when two workflow types chain a pair of
        #: services in opposite directions and no such order exists.
        self._type_succ: List[List[int]] = [sorted(s) for s in succ]
        waiting = [0] * num_t
        for targets in self._type_succ:
            for g in targets:
                waiting[g] += 1
        topo = [g for g in range(num_t) if not waiting[g]]
        for g in topo:  # grows while walked
            for s in self._type_succ[g]:
                waiting[s] -= 1
                if not waiting[s]:
                    topo.append(s)
        self._stage_order: Optional[List[int]] = (
            topo if len(topo) == num_t else None
        )

    def _advance_window(self, end: float) -> None:
        if self._fast_window_ok():
            if all(self._try_fast_slice(stop) for stop in self._slice_ends(end)):
                self.fast_windows += 1
                return
            self.fast_aborts += 1
        self.loop.run_until(end)

    def _fast_window_ok(self) -> bool:
        """Static preconditions of the vectorised replay (docs/SIMULATOR.md)."""
        if self.tracer.enabled:
            reason = "tracing"
        elif self._stage_order is None:
            reason = "type-cycle"
        elif self.loop.callbacks_pending:
            reason = "callbacks-pending"
        else:
            return True
        self.fast_ineligible_reasons[reason] = (
            self.fast_ineligible_reasons.get(reason, 0) + 1
        )
        return False

    def _slice_ends(self, end: float) -> List[float]:
        """Cut the window into time slices of bounded expected work.

        A slice is replayed and committed like a short window, so the
        cuts are unobservable; they bound the merge's temporaries (peak
        memory) by the completions to expect: per microservice no more
        than its backlog, nor than its working consumers turn over at
        the mean service time.
        """
        start = self.loop.now
        span = end - start

        def expected(ms: BatchedMicroservice) -> float:
            backlog = len(ms.fifo) + ms.unacked
            working = min(len(ms.order) + len(ms.draining), backlog)
            return min(
                backlog, working * span / ms.task_type.mean_service_time
            )

        work = math.fsum(expected(ms) for ms in self._services)
        slices = int(work / _SLICE_COMPLETIONS) + 1
        return [start + k * span / slices for k in range(1, slices)] + [end]

    def _try_fast_slice(self, end: float) -> bool:
        """Attempt one vectorised time slice; True if committed.

        All abort conditions are detected before any state mutation
        other than RNG prefetch consumption (rolled back), the workflow
        rows of the slice's arrivals (truncated) and the popped due rows
        (re-inserted), so an abort leaves the system exactly as the
        exact tier expects it.
        """
        loop = self.loop
        pool = self.pool
        live, dropped = loop.pop_due_rows(end)
        if not live:
            loop.commit_fast_window(end, 0, 0, dropped)
            return True
        due: Dict[int, List[Tuple[float, int]]] = {}
        arrival_rows: List[Tuple[float, int]] = []
        for when, _seq, kind, a, b in live:
            if kind == EVENT_ARRIVAL:
                arrival_rows.append((when, a))
            else:
                due.setdefault(a, []).append((when, b))
        marks: List[Tuple[PrefetchStream, Tuple]] = []
        workflows_before = pool.num_workflows

        def abort(reason: str) -> bool:
            self.fast_abort_reasons[reason] = (
                self.fast_abort_reasons.get(reason, 0) + 1
            )
            for prefetch, mark in marks:
                prefetch.rollback(mark)
            pool.num_workflows = workflows_before
            loop.push_rows(live + dropped)
            return False

        # Phase 1: the slice's arrivals, then one chain per microservice
        # in stage order, each fed the publishes of the ones before it
        # (pure but for the RNG prefetches and the new workflow rows).
        arrivals = self._draw_arrivals(arrival_rows, end, marks)
        entries = self._entry_publishes(arrivals)
        edges_in: Dict[int, List[Tuple]] = {}
        decrements: List[Tuple[np.ndarray, np.ndarray]] = []
        chains: Dict[int, _Chain] = {}
        for g in self._stage_order:
            pubs = self._publishes_into(
                edges_in.pop(g, None), entries.get(g), decrements
            )
            if pubs is None:
                return abort("join-underflow")
            if g not in due and not pubs.times.size:
                continue
            ms = self._services[g]
            if ms._fixed_service is None:
                marks.append((ms.prefetch, ms.prefetch.begin()))
            chains[g] = chain = self._chain(ms, due.get(g, []), pubs, end)
            if chain.times.size and self._type_succ[g]:
                self._route_completions(g, chain, edges_in)

        # Phase 2: global merge (still read-only w.r.t. system state).
        merged = self._merge(chains, arrivals)
        if merged is None:
            # Two events share a timestamp: serial breaks the tie by
            # seq; the merge cannot, so replay exactly.
            return abort("time-tie")
        event_times, times, types, wfs = merged
        locals_ = self._local_mat[pool.wf_type[wfs], types]
        # Abort: double completion (exact tier raises the real error).
        keys = np.sort(wfs * self.table.max_tasks + locals_)
        if (
            pool.wf_task_done[wfs, locals_].any()
            or (keys[1:] == keys[:-1]).any()
        ):
            return abort("double-completion")
        del keys
        seqs, pending, acts = self._assign_seqs(chains, arrivals, event_times)

        # ---- Commit (no aborts past this point) -------------------------
        self._commit_chains(chains, seqs, pending)
        loop.commit_fast_window(
            end,
            times.size
            + sum(len(c.ready_times) for c in chains.values())
            + arrivals.times.size + len(arrivals.silent),
            acts,
            dropped,
        )
        # The routing commit sorts the completions once more: let go of
        # the replay's scratch first.
        del live, due, chains, merged, event_times, seqs
        self._commit_arrivals(arrivals)
        self._commit_routing(times, types, wfs, locals_, decrements)
        return True

    def _draw_arrivals(
        self,
        rows: List[Tuple[float, int]],
        end: float,
        marks: List[Tuple[PrefetchStream, Tuple]],
    ) -> "_Arrivals":
        """Pre-draw every due arrival stream up to the end of the slice
        and append the requests' workflow rows, in arrival order."""
        if not rows:
            return _NO_ARRIVALS
        times: List[float] = []
        streams: List[int] = []
        pending: List[Tuple[float, int, float]] = []
        silent: List[float] = []
        for when, index in rows:
            stream = self._arrivals[index]
            if not stream.process.active:
                silent.append(when)  # a stopped process: a counted no-op
                continue
            marks.append((stream.prefetch, stream.prefetch.begin()))
            draw, scale = stream.prefetch.exponential, stream.scale
            while when <= end:
                times.append(when)
                streams.append(index)
                last = when
                when = when + draw(scale)
            pending.append((when, index, last))
        stamps = np.asarray(times, dtype=np.float64)
        order = np.argsort(stamps)
        stamps = stamps[order]
        by_stream = np.asarray(streams, dtype=np.int64)[order]
        wtypes = np.asarray(
            [stream.workflow for stream in self._arrivals], dtype=np.int64
        )[by_stream]
        first = self.pool.add_workflows(
            stamps.size, wtypes, stamps, self._wf_size[wtypes],
            self._pred_mat[wtypes],
        )
        return _Arrivals(
            stamps, by_stream, wtypes,
            np.arange(first, first + stamps.size, dtype=np.int64),
            pending, silent,
        )

    def _entry_publishes(self, arrivals: "_Arrivals") -> Dict[int, "_Publishes"]:
        """Entry tasks of the slice's arrivals, per entry service."""
        entries: Dict[int, _Publishes] = {}
        if arrivals.times.size:
            for g in self._entry_targets:
                ranks = self._entry_rank[arrivals.wtypes, g]
                mine = ranks >= 0
                entries[g] = _Publishes(
                    arrivals.times[mine], arrivals.workflows[mine], ranks[mine]
                )
        return entries

    def _publishes_into(
        self,
        edges: Optional[List[Tuple]],
        entries: Optional["_Publishes"],
        decrements: List[Tuple[np.ndarray, np.ndarray]],
    ) -> Optional["_Publishes"]:
        """What is published to one service during the slice, in time
        order: the successor edges of upstream completions that fire
        (an AND-join's at its last predecessor) and the entry tasks of
        arrivals.  ``None`` if an AND-join counter underflows."""
        pieces: List[Tuple] = [entries] if entries is not None else []
        if edges:
            times, wfs, locals_, subs, joins = _merged_by_time(edges)
            fired = self._fired(wfs, locals_, joins)
            if fired is None:
                return None
            decrements.append((wfs, locals_))
            pieces.append((times[fired], wfs[fired], subs[fired]))
        if not pieces:
            return _NO_PUBLISHES
        return _Publishes(*_merged_by_time(pieces))

    @staticmethod
    def _chain(
        ms: BatchedMicroservice,
        events: List[Tuple[float, int]],
        pubs: "_Publishes",
        end: float,
    ) -> "_Chain":
        """Replay one microservice through the slice.

        One time-ordered stream of its due rows — task finishes and
        consumer start-ups, including the finishes it schedules itself —
        and the publishes that reach it.  A freed slot pops the next
        queued task (the start-of-slice queue, then the publishes taken
        so far), draws its service time and either finishes again inside
        the slice or parks past ``end``; on an empty queue it goes idle,
        and a draining slot stops.  A publish that finds a slot idle is
        dispatched at its own timestamp to the lowest one — exactly what
        ``on_finished`` / ``on_ready`` / ``publish`` do event by event.
        """
        fixed = ms._fixed_service
        draw, mu, sigma = ms.prefetch.lognormal, ms._mu, ms._sigma
        draining = set(ms.draining)
        # Per-slot state: (task, start, busy time, tasks completed), the
        # task numbered chain-locally — in-flight tasks first, then the
        # queue in pop order; -1 for a consumer without one.
        slots: Dict[int, Tuple[int, float, float, int]] = {}
        in_flight: List[int] = []
        for _when, slot in events:
            task = ms.current_task[slot]
            if task >= 0:
                in_flight.append(task)
                task = len(in_flight) - 1
            slots[slot] = (
                task, ms.processing_started[slot],
                ms.slot_busy_time[slot], ms.slot_tasks_completed[slot],
            )
        base = len(in_flight)
        #: Tasks queued so far (start-of-slice queue + publishes taken)
        #: and tasks popped; a copied heap is a heap.
        queued = len(ms.fifo)
        pops = 0
        idle = ms._idle_heap[:]
        pub_times = pubs.times.tolist()
        pub_times.append(math.inf)
        taken = 0
        next_pub = pub_times[0]
        # Typed arrays, not lists: a window completes tens of thousands
        # of tasks, and these two are all that grows with them.
        comp_times = array("d")
        comp_tasks = array("q")
        #: Publishes (by index) that were dispatched on arrival.
        pub_acts: List[int] = []
        ready_times: List[float] = []
        quiet_times: List[float] = []
        parked: List[Tuple[float, int, int, int]] = []
        stopped: List[int] = []
        heap = events
        heap.append((math.inf, -1))  # sentinel: the heap is never empty
        heapq.heapify(heap)
        heappop, heappush, heapreplace = (
            heapq.heappop, heapq.heappush, heapq.heapreplace
        )
        while True:
            now, slot = heap[0]
            if now <= next_pub:
                if slot < 0:
                    break  # nothing due, nothing published: done
                task, start, busy, done = slots[slot]
                if task >= 0:
                    comp_times.append(now)
                    comp_tasks.append(task)
                    # Left-fold per slot, in completion order: bit-identical
                    # to the serial per-event accumulation.
                    busy += now - start
                    done += 1
                else:
                    ready_times.append(now)
                if pops == queued or slot in draining:
                    if slot in draining:
                        stopped.append(slot)
                    else:
                        heappush(idle, slot)
                    slots[slot] = (-1, start, busy, done)
                    quiet_times.append(now)
                    heappop(heap)
                    continue
                finish = now + (fixed if fixed is not None else draw(mu, sigma))
                if finish <= end:
                    heapreplace(heap, (finish, slot))
                else:
                    heappop(heap)
                    parked.append((finish, slot, pops, -1))
            else:
                now = next_pub
                taken += 1
                next_pub = pub_times[taken]
                queued += 1
                if not idle:
                    continue
                # The queue was empty: the lowest idle slot takes the task.
                slot = heappop(idle)
                if slot in slots:
                    _task, _start, busy, done = slots[slot]
                else:
                    busy = ms.slot_busy_time[slot]
                    done = ms.slot_tasks_completed[slot]
                finish = now + (fixed if fixed is not None else draw(mu, sigma))
                if finish <= end:
                    heappush(heap, (finish, slot))
                else:
                    parked.append((finish, slot, pops, len(pub_acts)))
                pub_acts.append(taken - 1)
            slots[slot] = (base + pops, now, busy, done)
            pops += 1
        from_queue = min(pops, len(ms.fifo))
        workflows = np.concatenate((
            ms.pool.task_workflow[np.asarray(in_flight, dtype=np.int64)],
            ms.pool.task_workflow[ms.fifo.peek_prefix(from_queue)],
            pubs.workflows[:pops - from_queue],
        ))
        dispatched = np.asarray(pub_acts, dtype=np.int64)
        return _Chain(
            np.frombuffer(comp_times, dtype=np.float64),
            workflows[np.frombuffer(comp_tasks, dtype=np.int64)],
            ready_times, quiet_times, pops,
            pubs.times[dispatched], pubs.subs[dispatched],
            slots, parked, idle, stopped, pubs,
        )

    def _route_completions(
        self, g: int, chain: "_Chain", edges_in: Dict[int, List[Tuple]]
    ) -> None:
        """Hand the successor edges of one chain's completions to the
        services they target: per edge its time, workflow, target local
        index, position in the completion's edge list and whether the
        target is an AND-join."""
        wtypes = self.pool.wf_type[chain.workflows]
        nodes = wtypes * self.table.max_tasks + self._local_mat[wtypes, g]
        first = self._edge_ptr[nodes]
        fanout = self._edge_ptr[nodes + 1] - first
        rank = np.repeat(np.arange(nodes.size), fanout)
        subs = np.arange(rank.size) - np.repeat(
            np.cumsum(fanout) - fanout, fanout
        )
        edges = subs + first[rank]
        columns = (
            chain.times[rank], chain.workflows[rank],
            self._edge_local[edges], subs, self._edge_join[edges],
        )
        targets = self._type_succ[g]
        if len(targets) == 1:
            edges_in.setdefault(targets[0], []).append(columns)
            return
        target_of = self._edge_global[edges]
        for target in targets:
            mine = target_of == target
            edges_in.setdefault(target, []).append(
                tuple(column[mine] for column in columns)
            )

    def _merge(self, chains: Dict[int, "_Chain"], arrivals: "_Arrivals"):
        """Every chain's completions in global time order.

        Returns ``(event times, times, types, workflows)`` — the sorted
        times of all events of the slice (finishes, start-ups,
        arrivals), then per completion its time, task type and
        workflow — or ``None`` when two events share a timestamp.
        """
        ids = list(chains)
        counts = [chains[g].times.size for g in ids]
        n = sum(counts)
        stamps = _joined(
            [chains[g].times for g in ids]
            + [chains[g].ready_times for g in ids]
            + [arrivals.times, arrivals.silent]
        )
        order = np.argsort(stamps)
        event_times = stamps[order]
        if (event_times[1:] == event_times[:-1]).any():
            return None
        order = order[order < n]  # completions only, still in time order
        types = np.repeat(np.asarray(ids, dtype=np.int16), counts)[order]
        workflows = _joined(
            [chains[g].workflows for g in ids], dtype=np.int64
        )[order]
        return event_times, stamps[order], types, workflows

    def _assign_seqs(
        self,
        chains: Dict[int, "_Chain"],
        arrivals: "_Arrivals",
        event_times: np.ndarray,
    ):
        """Sequence numbers of what stays scheduled past the slice.

        Every scheduling act takes the ``seq`` the serial loop would
        have assigned: its rank by (event time, rank within the event) —
        an event's publishes dispatch in edge (or entry-task) order, then
        the event schedules its own follow-up: a finish or start-up its
        service's next task, an arrival its stream's next request.  An
        event that stops a consumer or finds the queue empty, and the
        row of a stopped stream, schedule nothing.  So an act ranks
        after the events before its own that scheduled something and the
        dispatches publishes made before it.  Returns the seqs of each
        chain's parked finishes, the arrival rows left pending and the
        number of acts.
        """
        ids = list(chains)
        quiet = np.sort(_joined(
            [chains[g].quiet_times for g in ids] + [arrivals.silent]
        ))
        # The dispatches publishes made, in act order.
        pub_times = _joined([chains[g].pub_act_times for g in ids])
        by_act = np.lexsort((
            _joined([chains[g].pub_act_subs for g in ids], dtype=np.int64),
            pub_times,
        ))
        pub_times = pub_times[by_act]
        # Rank of each among them; the extra slot serves index -1.
        pub_rank = np.zeros(by_act.size + 1, dtype=np.int64)
        pub_rank[by_act] = np.arange(by_act.size)

        def seqs_of(times, publish) -> List[int]:
            """Seqs of the acts at ``times``: each its event's own
            (``publish`` -1) or the publish-made dispatch of that index."""
            times = np.asarray(times, dtype=np.float64)
            publish = np.asarray(publish, dtype=np.int64)
            return (
                self.loop._seq_next
                + np.searchsorted(event_times, times)
                - np.searchsorted(quiet, times)
                + np.where(
                    publish < 0,
                    np.searchsorted(pub_times, times, side="right"),
                    pub_rank[publish],
                )
            ).tolist()

        seqs = {}
        offset = 0
        for g in ids:
            chain = chains[g]
            seqs[g] = seqs_of(
                [chain.slots[slot][1] for _f, slot, _p, _k in chain.parked],
                [k if k < 0 else offset + k for _f, _s, _p, k in chain.parked],
            )
            offset += chain.pub_act_times.size
        pending = [
            (when, seq, EVENT_ARRIVAL, index, 0)
            for (when, index, _last), seq in zip(
                arrivals.pending,
                seqs_of(
                    [last for _when, _index, last in arrivals.pending],
                    [-1] * len(arrivals.pending),
                ),
            )
        ]
        return seqs, pending, event_times.size - quiet.size + by_act.size

    def _fired(self, pub_wf, pub_local, joins):
        """Which successor edges trigger their publish (indices, in
        publish order), or ``None`` if an AND-join counter underflows.

        Computed without mutating the pool: the k-th decrement (in
        publish order) of a counter at v0 triggers the publish exactly
        when k == v0.  A target with one predecessor is decremented
        once, so only joins need grouping.
        """
        v0 = self.pool.wf_pred_remaining[pub_wf, pub_local]
        kth = np.ones(pub_wf.size, dtype=np.int64)
        join = np.nonzero(joins)[0]
        if join.size:
            group = pub_wf[join] * self.table.max_tasks + pub_local[join]
            by_group = np.argsort(group, kind="stable")
            group = group[by_group]
            heads = np.nonzero(
                np.concatenate(([True], group[1:] != group[:-1]))
            )[0]
            sizes = np.diff(np.append(heads, group.size))
            kth[join[by_group]] = (
                np.arange(group.size) - np.repeat(heads, sizes) + 1
            )
        if (kth > v0).any():
            return None
        return np.nonzero(kth == v0)[0]

    def _commit_chains(
        self,
        chains: Dict[int, "_Chain"],
        seqs: Dict[int, List[int]],
        rows: List[tuple],
    ) -> None:
        """Queue and consumer state of every replayed microservice;
        ``rows`` (the pending arrival rows) go back on the heap with the
        finish events of the tasks in service past the end."""
        pool = self.pool
        for ms_i, chain in chains.items():
            ms = self._services[ms_i]
            # The slice's publishes join the queue behind what it held,
            # then the chain's pops come off the front of both.
            pubs = chain.publishes
            if pubs.times.size:
                ms.fifo.push_many(pool.add_tasks(
                    np.full(pubs.times.size, ms_i, dtype=np.int32),
                    pubs.workflows, pubs.times,
                ))
                ms.published_total += pubs.times.size
            popped = ms.fifo.peek_prefix(chain.pops)
            pool.task_deliveries[popped] += 1
            tasks = popped.tolist()
            ms.fifo.consume(chain.pops)
            completed = chain.times.size
            ms.unacked += chain.pops - completed
            ms.acked_total += completed
            ms.tasks_completed += completed
            ms._idle_heap = chain.idle
            gone = set(chain.stopped)
            for slot, (task, start, busy, done) in chain.slots.items():
                ms.processing_started[slot] = start
                ms.slot_busy_time[slot] = busy
                ms.slot_tasks_completed[slot] = done
                if task < 0:
                    ms.state[slot] = _STOPPED if slot in gone else _IDLE
                    ms.current_task[slot] = ms.pending_token[slot] = -1
            if gone:
                ms.draining = [s for s in ms.draining if s not in gone]
                for slot in chain.stopped:
                    ms.cluster.release(ms.node[slot])
            for (finish, slot, pop, _k), seq in zip(chain.parked, seqs[ms_i]):
                ms.state[slot] = _BUSY
                ms.current_task[slot] = tasks[pop]
                ms.pending_token[slot] = seq
                if not ms._busy_indexed[slot]:
                    ms._busy_indexed[slot] = True
                    heapq.heappush(ms._busy_heap, slot)
                rows.append((finish, seq, EVENT_FINISH, ms_i, slot))
        self.loop.push_rows(rows)

    def _commit_arrivals(self, arrivals: "_Arrivals") -> None:
        """Submission bookkeeping of the slice's arrivals (their workflow
        rows are in the pool already, their entry tasks in the chains)."""
        if not arrivals.times.size:
            return
        self.invoker.submitted_total += arrivals.times.size
        self.tds.account_reads(arrivals.times.size)  # entry-tasks queries
        counts = np.bincount(arrivals.streams, minlength=len(self._arrivals))
        for stream, count in zip(self._arrivals, counts.tolist()):
            if count:
                stream.process.submitted += count
                name = stream.workflow_type
                self._window_arrivals[name] = (
                    self._window_arrivals.get(name, 0) + count
                )

    def _commit_routing(self, times, types, wfs, locals_, decrements) -> None:
        """Dependency bookkeeping and window metrics."""
        pool = self.pool
        pool.wf_task_done[wfs, locals_] = 1
        edges = 0
        for pub_wf, pub_local in decrements:
            np.subtract.at(pool.wf_pred_remaining, (pub_wf, pub_local), 1)
            edges += pub_wf.size
        # One successors query per completion, one predecessors query
        # per successor edge.
        self.tds.account_reads(wfs.size + edges)
        if not wfs.size:
            return
        # Window metrics.
        type_counts = np.bincount(types, minlength=len(self._task_names))
        for g in np.nonzero(type_counts)[0]:
            name = self._task_names[g]
            self._window_task_completions[name] = (
                self._window_task_completions.get(name, 0)
                + int(type_counts[g])
            )
        # Workflow completions, in completion order: a workflow finishes
        # at the rank of its last completion here if that brings its
        # done count to its size.
        by_wf = np.argsort(wfs, kind="stable")
        wf_sorted = wfs[by_wf]
        last = np.nonzero(
            np.concatenate((wf_sorted[1:] != wf_sorted[:-1], [True]))
        )[0]
        seen = wf_sorted[last]
        pool.wf_done_count[seen] += np.diff(last, prepend=-1)
        finished = np.sort(
            by_wf[last[pool.wf_done_count[seen] == pool.wf_total_tasks[seen]]]
        )
        if finished.size:
            done_wfs = wfs[finished]
            pool.wf_completion[done_wfs] = times[finished]
            self.invoker.completed_total += finished.size
            for wfi in done_wfs.tolist():
                self._on_batched_workflow_complete(wfi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedWorkflowSystem({self.ensemble.name!r}, "
            f"t={self.loop.now:.0f}s, window={self.window_index}, "
            f"fast={self.fast_windows}, aborts={self.fast_abort_reasons}, "
            f"ineligible={self.fast_ineligible_reasons})"
        )
