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
   attached and no callback event (arrival process, chaos injector) is
   pending, the window is re-simulated arithmetically, one time slice
   of bounded work after another: per-microservice chains
   take every due row — task finishes, consumer start-ups, the last
   task of a terminating consumer — against the queue's start-of-slice
   contents with block-prefetched service draws, then one global merge
   replays dependency routing, queue counters and metrics with numpy.
   Any condition the replay cannot reproduce exactly (a completion-time
   tie, a publish into a microservice whose queue ran dry or that holds
   an idle consumer) *aborts the slice before any state mutation* — the
   RNG prefetch rolls back, the popped rows are re-inserted, and the
   exact tier finishes the window from the last committed slice.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, List, Mapping, NamedTuple, Tuple

import numpy as np

from repro.sim.events import EVENT_FINISH, TypedEventLoop
from repro.sim.microservice import _BUSY, _IDLE, _STOPPED, BatchedMicroservice
from repro.sim.requests import RequestPool
from repro.sim.system import MicroserviceWorkflowSystem
from repro.sim.tds import CompiledDependencyTable, TaskDependencyService

__all__ = ["BatchedWorkflowSystem", "BatchedInvoker"]

#: Expected task completions one replayed time slice is sized for
#: (:meth:`BatchedWorkflowSystem._slice_ends`).  The merge holds a few
#: dozen arrays of that length, so this bounds a replayed window's
#: footprint; every cut re-parks the in-flight tasks, so smaller slices
#: cost wall-clock (docs/PERFORMANCE.md has the measured trade-off).
_SLICE_COMPLETIONS = 16384


class _Chain(NamedTuple):
    """One microservice's replayed slice (:meth:`BatchedWorkflowSystem._chain`)."""

    #: Per completion, in chain order: its time and the task's workflow.
    times: np.ndarray
    workflows: np.ndarray
    #: Times of the start-ups replayed, and of the events that
    #: dispatched nothing (a consumer stopped or found the queue empty).
    ready_times: List[float]
    quiet_times: List[float]
    #: Tasks taken off the queue.
    pops: int
    #: Final ``(task, start, busy time, tasks completed)`` per slot touched.
    slots: Dict[int, Tuple[int, float, float, int]]
    #: ``(finish time, slot, start)`` of tasks in service past the end,
    #: and their pool rows.
    parked: List[Tuple[float, int, float]]
    parked_tasks: List[int]
    #: Slots that end idle (the queue ran dry) / stopped (were draining).
    idle: List[int]
    stopped: List[int]


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
    def submit(self, workflow_type: str, arrival_window: int) -> int:
        """Steps 1–2 of Fig. 1; returns the workflow's pool row index."""
        w = self.workflow_index(workflow_type)
        table = self.table
        pool = self.pool
        now = self.loop.now
        wfi = pool.add_workflow(
            w, now, table.size[w], arrival_window, table.pred_counts[w]
        )
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
        self.loop.bind_executors(self._execute_finish, self._execute_ready)
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
    def submit(self, workflow_type: str) -> int:
        """Submit one workflow request now; returns its pool row index."""
        wfi = self.invoker.submit(workflow_type, self.window_index)
        self._window_arrivals[workflow_type] = (
            self._window_arrivals.get(workflow_type, 0) + 1
        )
        self.delay_tracker.record_arrival(self.window_index, workflow_type)
        if self.tracer.enabled:
            self._trace_request_ids[wfi] = self._requests_traced
            self.tracer.emit(
                "event.arrival",
                workflow=workflow_type,
                request_id=self._requests_traced,
            )
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
                remaining, w, now, table.size[w], self.window_index,
                table.pred_counts[w],
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
            self.delay_tracker.record_arrivals(
                remaining, self.window_index, workflow_type
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
            self.tracer.emit(
                "event.task_span",
                service=name,
                request_id=self._trace_request_ids.get(
                    int(pool.task_workflow[task]), -1
                ),
                published=float(pool.task_published_at[task]),
                started=float(pool.task_started_at[task]),
                deliveries=int(pool.task_deliveries[task]),
                wasted=float(pool.task_wasted_work[task]),
            )
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
        self.delay_tracker.record_completion(
            int(pool.wf_arrival_window[wfi]), wf_type, delay
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "event.workflow_complete",
                workflow=wf_type,
                request_id=self._trace_request_ids.pop(wfi, -1),
                response_time=delay,
            )

    # Vectorised window replay ---------------------------------------------
    def _build_fast_tables(self) -> None:
        """Flatten the compiled dependency table for array lookups."""
        table = self.table
        num_w = table.num_workflow_types
        num_t = table.num_task_types
        #: (workflow type, global task index) -> local index (-1 absent).
        self._local_mat = np.full((num_w, num_t), -1, dtype=np.int16)
        # One CSR over node = workflow type * max_tasks + local index:
        # successor edges in DAG edge order, so expanding completions in
        # rank order yields publishes in exactly the serial order.
        ptr = [0]
        locs: List[int] = []
        globs: List[int] = []
        joins: List[bool] = []
        #: feeds[p, w, g]: workflow type w has the edge p -> g.
        self._feeds = np.zeros((num_t, num_w, num_t), dtype=bool)
        for w in range(num_w):
            self._local_mat[w] = table.local_of_task[w]
            for local in range(table.max_tasks):
                if local < table.size[w]:
                    g = int(table.task_of_local[w][local])
                    for s_local, s_global in table.successors[w][local]:
                        locs.append(s_local)
                        globs.append(s_global)
                        joins.append(bool(table.pred_counts[w][s_local] > 1))
                        self._feeds[g, w, s_global] = True
                ptr.append(len(locs))
        self._edge_ptr = np.array(ptr, dtype=np.int64)
        self._edge_local = np.array(locs, dtype=np.int16)
        self._edge_global = np.array(globs, dtype=np.int32)
        #: Edge targets an AND-join (more than one predecessor).
        self._edge_join = np.array(joins, dtype=bool)
        #: Task-type-level graph (union over workflow types): each
        #: service's predecessors, and a sinks-first service order (DFS
        #: post-order over successors).
        type_edges = self._feeds.any(axis=1)
        self._type_preds: List[List[int]] = [
            np.nonzero(type_edges[:, g])[0].tolist() for g in range(num_t)
        ]
        self._sinks_first: List[int] = []
        seen: set = set()

        def visit(g: int) -> None:
            if g not in seen:
                seen.add(g)
                for s in np.nonzero(type_edges[g])[0].tolist():
                    visit(s)
                self._sinks_first.append(g)

        for g in range(num_t):
            visit(g)

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
        other than RNG prefetch consumption (rolled back) and the popped
        due rows (re-inserted), so an abort leaves the system exactly as
        the exact tier expects it.
        """
        loop = self.loop
        live, dropped = loop.pop_due_rows(end)
        if not live:
            loop.commit_fast_window(end, 0, 0, dropped)
            return True
        due: Dict[int, List[Tuple[float, int]]] = {}
        for when, _seq, _kind, ms_i, slot in live:
            due.setdefault(ms_i, []).append((when, slot))
        marks: Dict[int, Tuple] = {}

        def abort(reason: str) -> bool:
            self.fast_abort_reasons[reason] = (
                self.fast_abort_reasons.get(reason, 0) + 1
            )
            for ms_i, mark in marks.items():
                self._services[ms_i].prefetch.rollback(mark)
            loop.push_rows(live + dropped)
            return False

        # Phase 1: per-microservice completion chains, sinks first (pure;
        # only the RNG prefetch advances, guarded by rollback marks).
        chains: Dict[int, _Chain] = {}
        #: Services a publish may not reach, with the abort it would cause.
        closed: Dict[int, str] = {}
        for g in self._sinks_first:
            ms = self._services[g]
            reason = None
            if g in due:
                if ms._fixed_service is None:
                    marks[g] = ms.prefetch.begin()
                chains[g] = chain = self._chain(ms, due[g], end)
                if chain.idle:
                    reason = "starvation"
            if reason is None and ms.has_idle():
                reason = "publish-into-idle"
            if reason is not None:
                closed[g] = reason
                # Give up before chaining an upstream service whose
                # completions would land here.
                for p in self._type_preds[g]:
                    if p in due and p not in chains and self._feeds_now(p, due[p])[g]:
                        return abort(reason)

        # Phase 2: global merge (still read-only w.r.t. system state).
        merged = self._merge(chains)
        if merged is None:
            # Two events share a timestamp: serial breaks the tie by
            # seq; the merge cannot, so replay exactly.
            return abort("time-tie")
        times, types, wfs, seqs = merged
        routed = None
        if times.size:
            routed = self._route(times, types, wfs, closed)
            if isinstance(routed, str):
                return abort(routed)

        # ---- Commit (no aborts past this point) -------------------------
        self._commit_chains(chains, seqs)
        loop.commit_fast_window(
            end,
            times.size + sum(len(c.ready_times) for c in chains.values()),
            sum(chain.pops for chain in chains.values()),
            dropped,
        )
        # The pool may grow below: let go of the replay's scratch first.
        del live, due, chains, merged, seqs
        if routed is not None:
            self._commit_routing(times, types, wfs, routed)
        return True

    def _feeds_now(self, p: int, events: List[Tuple[float, int]]) -> np.ndarray:
        """Task types a completion at service ``p`` is likely to publish
        to in this slice: the successors, within their own workflow
        type, of the tasks its due consumers hold and of the head of its
        queue — as much of it as a whole slice is sized to complete.
        Only the early give-up reads this; the publishes that do happen
        are checked after the merge."""
        ms = self._services[p]
        pool = self.pool
        tasks = np.concatenate((
            np.asarray(
                [ms.current_task[slot] for _when, slot in events], dtype=np.int64
            ),
            ms.fifo.peek_prefix(min(len(ms.fifo), _SLICE_COMPLETIONS)),
        ))
        present = np.bincount(
            pool.wf_type[pool.task_workflow[tasks[tasks >= 0]]],
            minlength=self.table.num_workflow_types,
        )
        return self._feeds[p][present > 0].any(axis=0)

    @staticmethod
    def _chain(
        ms: BatchedMicroservice, events: List[Tuple[float, int]], end: float
    ) -> "_Chain":
        """Replay one microservice's due rows against its queue.

        Every due row — a task finish or a consumer start-up — is taken
        in time order; the slot it frees pops the next queued task,
        draws its service time and either finishes again inside the
        slice or parks past ``end``.  A draining slot stops instead, and
        once the start-of-slice queue is used up slots go idle: the
        queue *ran dry*, which holds only if nothing is published here
        during the slice (the caller checks after the merge).
        """
        fixed = ms._fixed_service
        draw, mu, sigma = ms.prefetch.lognormal, ms._mu, ms._sigma
        depth = len(ms.fifo)
        draining = set(ms.draining)
        # Per-slot state: (task, start, busy time, tasks completed), the
        # task numbered chain-locally — in-flight tasks first, then the
        # queue prefix in pop order; -1 for a consumer without one.
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
        pops = 0
        # Typed arrays, not lists: a window completes tens of thousands
        # of tasks, and these two are all that grows with them.
        comp_times = array("d")
        comp_tasks = array("q")
        ready_times: List[float] = []
        quiet_times: List[float] = []
        parked: List[Tuple[float, int, float]] = []
        parked_tasks: List[int] = []
        idle: List[int] = []
        stopped: List[int] = []
        heap = events
        heapq.heapify(heap)
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        while heap:
            now, slot = heap[0]
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
            if pops == depth or slot in draining:
                (stopped if slot in draining else idle).append(slot)
                slots[slot] = (-1, start, busy, done)
                quiet_times.append(now)
                heappop(heap)
                continue
            finish = now + (fixed if fixed is not None else draw(mu, sigma))
            slots[slot] = (base + pops, now, busy, done)
            if finish <= end:
                heapreplace(heap, (finish, slot))
            else:
                heappop(heap)
                parked.append((finish, slot, now))
                parked_tasks.append(base + pops)
            pops += 1
        rows = np.concatenate(
            (np.asarray(in_flight, dtype=np.int64), ms.fifo.peek_prefix(pops))
        )
        return _Chain(
            np.frombuffer(comp_times, dtype=np.float64),
            ms.pool.task_workflow[rows[np.frombuffer(comp_tasks, dtype=np.int64)]],
            ready_times, quiet_times, pops, slots,
            parked, rows[parked_tasks].tolist(), idle, stopped,
        )

    def _merge(self, chains: Dict[int, "_Chain"]):
        """Every chain's completions in global time order.

        Returns ``(times, types, workflows, seqs)`` — the first three per
        completion, the last the sequence numbers of each chain's parked
        finishes — or ``None`` when two events share a timestamp.
        """
        ids = sorted(chains)
        counts = [chains[g].times.size for g in ids]
        n = sum(counts)
        stamps = np.concatenate(
            [chains[g].times for g in ids]
            + [np.asarray(chains[g].ready_times, dtype=np.float64) for g in ids]
        )
        order = np.argsort(stamps)
        event_times = stamps[order]
        if (event_times[1:] == event_times[:-1]).any():
            return None
        # A parked finish takes the seq the serial loop would have
        # assigned: the rank of its dispatching event among all events
        # that dispatched (one that stops a consumer or finds the queue
        # empty schedules nothing).
        quiet_times = np.sort(np.concatenate(
            [np.asarray(chains[g].quiet_times, dtype=np.float64) for g in ids]
        ))
        seqs = {}
        for g in ids:
            starts = [start for _finish, _slot, start in chains[g].parked]
            seqs[g] = (
                self.loop._seq_next
                + np.searchsorted(event_times, starts)
                - np.searchsorted(quiet_times, starts)
            ).tolist()
        order = order[order < n]  # completions only, still in time order
        types = np.repeat(np.asarray(ids, dtype=np.int16), counts)[order]
        workflows = np.concatenate([chains[g].workflows for g in ids])[order]
        return stamps[order], types, workflows, seqs

    def _route(self, times, types, wfs, closed: Dict[int, str]):
        """Dependency routing of the merged completions, pool untouched.

        Returns the abort reason, or what :meth:`_commit_routing` applies.
        """
        pool = self.pool
        wtypes = pool.wf_type[wfs]
        locals_ = self._local_mat[wtypes, types]
        # Abort: double completion (exact tier raises the real error).
        keys = np.sort(wfs * self.table.max_tasks + locals_)
        if (
            pool.wf_task_done[wfs, locals_].any()
            or (keys[1:] == keys[:-1]).any()
        ):
            return "double-completion"
        del keys
        pub_rank, edges = self._expand_edges(wtypes, locals_)
        pub_wf = wfs[pub_rank]
        pub_local = self._edge_local[edges]
        trig = self._fired(pub_wf, pub_local, edges)
        if trig is None:
            return "join-underflow"
        new_types = self._edge_global[edges[trig]]
        # Abort: a publish into a microservice that ran dry, or that
        # holds an idle consumer, would dispatch at once — a
        # cross-service cascade the per-service chains did not simulate.
        targets = np.nonzero(
            np.bincount(new_types, minlength=len(self._services))
        )[0].tolist()
        for g in targets:
            if g in closed:
                return closed[g]
        return (
            locals_, pub_wf, pub_local,
            targets, new_types, pub_wf[trig], times[pub_rank[trig]],
        )

    def _expand_edges(self, wtypes, locals_):
        """Successor edges of each completion, in (rank, edge) order:
        the completion's rank and the edge's CSR index, per edge."""
        nodes = wtypes * self.table.max_tasks + locals_
        first = self._edge_ptr[nodes]
        fanout = self._edge_ptr[nodes + 1] - first
        pub_rank = np.repeat(np.arange(nodes.size), fanout)
        edges = np.arange(pub_rank.size) - np.repeat(
            np.cumsum(fanout) - fanout - first, fanout
        )
        return pub_rank, edges

    def _fired(self, pub_wf, pub_local, edges):
        """Which successor edges trigger their publish (indices, in
        publish order), or ``None`` if an AND-join counter underflows.

        Computed without mutating the pool: the k-th decrement (in
        publish order) of a counter at v0 triggers the publish exactly
        when k == v0.  A target with one predecessor is decremented
        once, so only joins need grouping.
        """
        v0 = self.pool.wf_pred_remaining[pub_wf, pub_local]
        kth = np.ones(edges.size, dtype=np.int64)
        join = np.nonzero(self._edge_join[edges])[0]
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
        self, chains: Dict[int, "_Chain"], seqs: Dict[int, List[int]]
    ) -> None:
        """Queue and consumer state of every replayed microservice."""
        rows = []  # finish events of the tasks in service past the end
        for ms_i, chain in chains.items():
            ms = self._services[ms_i]
            self.pool.task_deliveries[ms.fifo.peek_prefix(chain.pops)] += 1
            ms.fifo.consume(chain.pops)
            completed = chain.times.size
            ms.unacked += chain.pops - completed
            ms.acked_total += completed
            ms.tasks_completed += completed
            for slot, (_task, start, busy, done) in chain.slots.items():
                ms.processing_started[slot] = start
                ms.slot_busy_time[slot] = busy
                ms.slot_tasks_completed[slot] = done
            for slot in chain.idle:
                ms.state[slot] = _IDLE
                ms.current_task[slot] = ms.pending_token[slot] = -1
                heapq.heappush(ms._idle_heap, slot)
            if chain.stopped:
                gone = set(chain.stopped)
                ms.draining = [s for s in ms.draining if s not in gone]
                for slot in chain.stopped:
                    ms.state[slot] = _STOPPED
                    ms.current_task[slot] = ms.pending_token[slot] = -1
                    ms.cluster.release(ms.node[slot])
            for (finish, slot, _start), task, seq in zip(
                chain.parked, chain.parked_tasks, seqs[ms_i]
            ):
                ms.state[slot] = _BUSY
                ms.current_task[slot] = task
                ms.pending_token[slot] = seq
                rows.append((finish, seq, EVENT_FINISH, ms_i, slot))
        self.loop.push_rows(rows)

    def _commit_routing(self, times, types, wfs, routed) -> None:
        """Dependency bookkeeping, publishes and window metrics."""
        locals_, pub_wf, pub_local, targets, new_types, new_wfs, new_times = (
            routed
        )
        pool = self.pool
        pool.wf_task_done[wfs, locals_] = 1
        np.subtract.at(pool.wf_pred_remaining, (pub_wf, pub_local), 1)
        # One successors query per completion, one predecessors query
        # per successor edge.
        self.tds.account_reads(wfs.size + pub_wf.size)
        # Publishes, in global trigger order, grouped per target queue.
        if targets:
            new_tasks = pool.add_tasks(new_types, new_wfs, new_times)
            for g in targets:
                self._services[g].publish_many(new_tasks[new_types == g])
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
