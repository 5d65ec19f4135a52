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
2. **Vectorised window replay** (the fast path) — when a window is a
   pure processing race (only task-finish events pending, no tracing, no
   draining consumers), the whole window is re-simulated arithmetically:
   per-microservice completion chains with block-prefetched service
   draws, then one global merge that replays dependency routing, queue
   counters and metrics with numpy.  Any condition the replay cannot
   reproduce exactly (a queue runs dry, a completion-time tie, a publish
   into a microservice with idle consumers) *aborts before any state
   mutation* — the RNG prefetch rolls back, the popped events are
   re-inserted, and the exact tier runs the window instead.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.events import TypedEventLoop
from repro.sim.microservice import BatchedMicroservice
from repro.sim.requests import RequestPool
from repro.sim.system import MicroserviceWorkflowSystem
from repro.sim.tds import CompiledDependencyTable, TaskDependencyService

__all__ = ["BatchedWorkflowSystem", "BatchedInvoker"]


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
    count vectorised replays and their fallbacks, so benchmarks and
    tests can assert the fast path actually engaged.

    API deltas (documented in docs/SIMULATOR.md): :meth:`submit` and
    :meth:`inject_burst` return integer pool row indices instead of
    :class:`repro.sim.requests.WorkflowRequest` objects.
    """

    # Substrate wiring ----------------------------------------------------
    def _build_substrate(self) -> None:
        self.loop = TypedEventLoop(profiler=self.profiler)
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
        max_tasks = table.max_tasks
        #: (workflow type, global task index) -> local index (-1 absent).
        self._local_mat = np.full((num_w, num_t), -1, dtype=np.int64)
        #: (workflow type, local index) -> number of successors.
        self._succ_cnt_mat = np.zeros((num_w, max_tasks), dtype=np.int64)
        #: Per workflow type: successor edges flattened in DAG edge
        #: order, with CSR-style offsets per local index.
        self._edges_local: List[np.ndarray] = []
        self._edges_global: List[np.ndarray] = []
        self._edge_ptr: List[np.ndarray] = []
        for w in range(num_w):
            self._local_mat[w] = table.local_of_task[w]
            locs: List[int] = []
            globs: List[int] = []
            ptr = [0]
            for succs in table.successors[w]:
                for s_local, s_global in succs:
                    locs.append(s_local)
                    globs.append(s_global)
                ptr.append(len(locs))
            self._edges_local.append(np.array(locs, dtype=np.int64))
            self._edges_global.append(np.array(globs, dtype=np.int64))
            edge_ptr = np.array(ptr, dtype=np.int64)
            self._edge_ptr.append(edge_ptr)
            self._succ_cnt_mat[w, : table.size[w]] = np.diff(edge_ptr)
        #: Strictly larger than any per-completion successor count, so
        #: ``rank * K + edge`` orders publishes lexicographically.
        self._edge_key_base = int(self._succ_cnt_mat.max()) + 1

    def _advance_window(self, end: float) -> None:
        if self._fast_window_ok():
            if self._try_fast_window(end):
                self.fast_windows += 1
                return
            self.fast_aborts += 1
        self.loop.run_until(end)

    def _fast_window_ok(self) -> bool:
        """Static preconditions of the vectorised replay (docs/SIMULATOR.md)."""
        if self.tracer.enabled or self.profiler.enabled:
            return False
        if not self.loop.only_finish_events_pending:
            return False
        for ms in self._services:
            if ms.draining:
                return False
        return True

    def _try_fast_window(self, end: float) -> bool:
        """Attempt one vectorised window; True if committed.

        All abort conditions are detected before any state mutation
        other than RNG prefetch consumption (rolled back) and the
        popped due events (re-inserted), so an abort leaves the system
        exactly as the exact tier expects it.
        """
        loop = self.loop
        due = loop.pop_due_finish_events(end)
        if not due:
            loop.commit_fast_window(end, 0, 0)
            return True
        per_ms: Dict[int, List[Tuple[float, int, int]]] = {}
        for event_time, seq, ms_i, slot in due:
            per_ms.setdefault(ms_i, []).append((event_time, seq, slot))

        # Phase 1: per-microservice completion chains (pure; only the
        # RNG prefetch advances, guarded by rollback marks).
        marks: Dict[int, Tuple] = {}
        chains: Dict[int, Tuple[List[float], List[int], List[int], List[float], int]] = {}
        parked: List[Tuple[int, int, float, float, int]] = []

        def _rollback(reason: str) -> None:
            self.fast_abort_reasons[reason] = (
                self.fast_abort_reasons.get(reason, 0) + 1
            )
            for m_i, mark in marks.items():
                self._services[m_i].prefetch.rollback(mark)
            for row in due:
                loop.push_finish_event(row[0], row[1], row[2], row[3])
            return None

        for ms_i, events in per_ms.items():
            ms = self._services[ms_i]
            fixed = ms._fixed_service
            if fixed is None:
                marks[ms_i] = ms.prefetch.begin()
            depth = len(ms.fifo)
            prefix = ms.fifo.peek_prefix(depth)
            pops = 0
            local_heap = list(events)
            heapq.heapify(local_heap)
            local_cur: Dict[int, int] = {}
            local_start: Dict[int, float] = {}
            comps_t: List[float] = []
            comps_slot: List[int] = []
            comps_task: List[int] = []
            comps_start: List[float] = []
            tie = 1 << 60  # new events order after initial seqs on ties
            while local_heap:
                event_time, _tb, slot = heapq.heappop(local_heap)
                cur = local_cur.get(slot)
                if cur is None:
                    cur = ms.current_task[slot]
                    start = ms.processing_started[slot]
                else:
                    start = local_start[slot]
                comps_t.append(event_time)
                comps_slot.append(slot)
                comps_task.append(cur)
                comps_start.append(start)
                if pops == depth:
                    # Queue ran dry: the next dispatch would depend on
                    # mid-window arrivals — only the exact tier orders
                    # those correctly.
                    _rollback("starvation")
                    return False
                nxt = int(prefix[pops])
                pops += 1
                if fixed is not None:
                    service_time = fixed
                else:
                    service_time = ms.prefetch.lognormal(ms._mu, ms._sigma)
                finish_time = event_time + service_time
                local_cur[slot] = nxt
                local_start[slot] = event_time
                if finish_time <= end:
                    tie += 1
                    heapq.heappush(local_heap, (finish_time, tie, slot))
                else:
                    parked.append((ms_i, slot, event_time, finish_time, nxt))
            chains[ms_i] = (comps_t, comps_slot, comps_task, comps_start, pops)

        # Phase 2: global merge (still read-only w.r.t. system state).
        ms_ids = sorted(chains)
        times = np.concatenate(
            [np.asarray(chains[m][0], dtype=np.float64) for m in ms_ids]
        )
        n = times.size
        sorted_times = np.sort(times)
        if sorted_times.size > 1 and np.any(
            sorted_times[1:] == sorted_times[:-1]
        ):
            # Completion-time tie: serial breaks it by seq; the merge
            # cannot, so replay exactly.
            _rollback("time-tie")
            return False
        type_arr = np.concatenate(
            [np.full(len(chains[m][0]), m, dtype=np.int64) for m in ms_ids]
        )
        task_arr = np.concatenate(
            [np.asarray(chains[m][2], dtype=np.int64) for m in ms_ids]
        )
        order = np.argsort(times, kind="stable")
        times_g = times[order]
        type_g = type_arr[order]
        task_g = task_arr[order]

        pool = self.pool
        wf_g = pool.task_workflow[task_g]
        w_g = pool.wf_type[wf_g].astype(np.int64)
        local_g = self._local_mat[w_g, type_g]

        # Abort: double completion (exact tier raises the real error).
        if pool.wf_task_done[wf_g, local_g].any():
            _rollback("double-completion")
            return False
        done_key = wf_g * self.table.max_tasks + local_g
        if np.unique(done_key).size != n:
            _rollback("double-completion")
            return False

        # Successor-edge expansion, in (completion rank, edge) order.
        pub_wf_parts: List[np.ndarray] = []
        pub_local_parts: List[np.ndarray] = []
        pub_global_parts: List[np.ndarray] = []
        pub_key_parts: List[np.ndarray] = []
        pub_rank_parts: List[np.ndarray] = []
        key_base = self._edge_key_base
        for w in np.unique(w_g):
            mask = w_g == w
            loc = local_g[mask]
            ranks = np.nonzero(mask)[0]
            ptr = self._edge_ptr[w]
            starts = ptr[loc]
            cnts = ptr[loc + 1] - starts
            total = int(cnts.sum())
            if total == 0:
                continue
            rep = np.repeat(np.arange(loc.size), cnts)
            offsets = np.arange(total) - np.repeat(np.cumsum(cnts) - cnts, cnts)
            edge_idx = starts[rep] + offsets
            pub_wf_parts.append(wf_g[mask][rep])
            pub_local_parts.append(self._edges_local[w][edge_idx])
            pub_global_parts.append(self._edges_global[w][edge_idx])
            pub_key_parts.append(ranks[rep] * key_base + offsets)
            pub_rank_parts.append(ranks[rep])
        if pub_wf_parts:
            pub_wf = np.concatenate(pub_wf_parts)
            pub_local = np.concatenate(pub_local_parts)
            pub_global = np.concatenate(pub_global_parts)
            pub_key = np.concatenate(pub_key_parts)
            pub_rank = np.concatenate(pub_rank_parts)
        else:
            pub_wf = pub_local = pub_global = pub_key = pub_rank = np.empty(
                0, dtype=np.int64
            )

        # AND-join countdown, computed without mutating the pool: the
        # k-th decrement (in global publish order) of a counter at v0
        # triggers the publish exactly when k == v0.
        v0 = pool.wf_pred_remaining[pub_wf, pub_local].astype(np.int64)
        group = pub_wf * self.table.max_tasks + pub_local
        sort_idx = np.lexsort((pub_key, group))
        group_s = group[sort_idx]
        if group_s.size:
            new_group = np.empty(group_s.size, dtype=bool)
            new_group[0] = True
            new_group[1:] = group_s[1:] != group_s[:-1]
            group_pos = np.nonzero(new_group)[0]
            sizes = np.diff(np.append(group_pos, group_s.size))
            cum = np.arange(group_s.size) - np.repeat(group_pos, sizes)
            v0_s = v0[sort_idx]
            if np.any(cum + 1 > v0_s):  # counter would underflow
                _rollback("join-underflow")
                return False
            trig = sort_idx[cum + 1 == v0_s]
            trig = trig[np.argsort(pub_key[trig])]
        else:
            trig = np.empty(0, dtype=np.int64)
        new_types = pub_global[trig]
        new_wfs = pub_wf[trig]
        new_times = times_g[pub_rank[trig]]

        # Abort: a publish into a microservice with an idle consumer
        # would dispatch immediately — a cross-service cascade the
        # per-service chains above did not simulate.
        target_types = np.unique(new_types)
        for g in target_types:
            if self._services[g].has_idle():
                _rollback("publish-into-idle")
                return False

        # Workflow completions: the rank at which a workflow's done
        # count reaches its size.
        wf_sort = np.lexsort((np.arange(n), wf_g))
        wf_s = wf_g[wf_sort]
        new_wf = np.empty(n, dtype=bool)
        new_wf[0] = True
        new_wf[1:] = wf_s[1:] != wf_s[:-1]
        wf_pos = np.nonzero(new_wf)[0]
        wf_sizes = np.diff(np.append(wf_pos, n))
        wf_cum = np.arange(n) - np.repeat(wf_pos, wf_sizes)
        complete_mask = (
            pool.wf_done_count[wf_s] + wf_cum + 1 == pool.wf_total_tasks[wf_s]
        )
        complete_ranks = np.sort(wf_sort[complete_mask])
        comp_wfs = wf_g[complete_ranks]
        comp_times = times_g[complete_ranks]

        # ---- Commit (no aborts past this point) -------------------------
        seq0 = loop._seq_next
        # Per-microservice queue/consumer state.
        for ms_i in ms_ids:
            ms = self._services[ms_i]
            comps_t, comps_slot, _tasks, comps_start, pops = chains[ms_i]
            popped = ms.fifo.peek_prefix(pops)
            pool.task_deliveries[popped] += 1
            ms.fifo.consume(pops)
            completed_here = len(comps_t)
            ms.unacked += pops - completed_here
            ms.acked_total += completed_here
            ms.tasks_completed += completed_here
            busy_time = ms.slot_busy_time
            slot_done = ms.slot_tasks_completed
            for event_time, slot, start in zip(comps_t, comps_slot, comps_start):
                # Left-fold in completion order: bit-identical to the
                # serial per-event accumulation.
                busy_time[slot] += event_time - start
                slot_done[slot] += 1
            marks.pop(ms_i, None)
        # In-flight tasks at the window boundary: re-insert their finish
        # events with the seq the serial loop would have assigned (one
        # schedule per completion, in completion order).
        if parked:
            starts = np.array([p[2] for p in parked], dtype=np.float64)
            seqs = seq0 + np.searchsorted(times_g, starts)
            for (ms_i, slot, start, finish_time, task), seq in zip(
                parked, seqs.tolist()
            ):
                loop.push_finish_event(finish_time, seq, ms_i, slot)
                ms = self._services[ms_i]
                ms.current_task[slot] = task
                ms.processing_started[slot] = start
                ms.pending_token[slot] = seq
        # Dependency bookkeeping.
        pool.wf_task_done[wf_g, local_g] = 1
        if pub_wf.size:
            np.subtract.at(pool.wf_pred_remaining, (pub_wf, pub_local), 1)
        np.add.at(pool.wf_done_count, wf_g, 1)
        reads = n + int(self._succ_cnt_mat[w_g, local_g].sum())
        self.tds.account_reads(reads)
        # Publishes, in global trigger order, grouped per target queue.
        if new_types.size:
            new_tasks = pool.add_tasks(
                new_types.astype(np.int32), new_wfs, new_times
            )
            for g in target_types:
                mask = new_types == g
                self._services[g].publish_many(new_tasks[mask])
        # Window metrics.
        type_counts = np.bincount(type_g, minlength=len(self._task_names))
        for g in np.nonzero(type_counts)[0]:
            name = self._task_names[g]
            self._window_task_completions[name] = (
                self._window_task_completions.get(name, 0)
                + int(type_counts[g])
            )
        # Workflow completions, in completion order.
        if comp_wfs.size:
            pool.wf_completion[comp_wfs] = comp_times
            self.invoker.completed_total += comp_wfs.size
            for wfi in comp_wfs.tolist():
                self._on_batched_workflow_complete(wfi)
        loop.commit_fast_window(end, n, n)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedWorkflowSystem({self.ensemble.name!r}, "
            f"t={self.loop.now:.0f}s, window={self.window_index}, "
            f"fast={self.fast_windows})"
        )
