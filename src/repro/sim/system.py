"""The microservice workflow system facade.

Wires together the dependency table, per-task microservices and the
workflow invoker, and exposes the time-windowed control surface of the
paper's Section II-B: apply an allocation m(k) at a window boundary, let
the world run for one window, observe w(k+1), d(k) and the reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sim.events import EventLoop
from repro.sim.invoker import WorkflowInvoker
from repro.sim.metrics import WindowObservation
from repro.sim.microservice import Microservice
from repro.sim.requests import TaskRequest, WorkflowRequest
from repro.sim.tds import CompiledDependencyTable
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.utils.rng import RngStream, spawn_rngs
from repro.utils.validation import check_integral, check_positive
from repro.workflows.dag import WorkflowEnsemble

__all__ = ["SystemConfig", "MicroserviceWorkflowSystem"]


@dataclass
class SystemConfig:
    """Deployment parameters mirroring the paper's Section V/VI-A setup.

    Attributes
    ----------
    window_length:
        Control-window length in seconds (paper default: 30 s).
    consumer_budget:
        The total-consumer constraint ``C`` (14 for MSD, 30 for LIGO).
    """

    window_length: float = 30.0
    consumer_budget: int = 14
    #: "drain" (graceful, Kubernetes-like) or "kill" (immediate + nack).
    scale_down_mode: str = "drain"

    def __post_init__(self):
        if not 0 < self.window_length < math.inf:
            raise ValueError(
                f"window_length must be positive and finite, "
                f"got {self.window_length!r}"
            )
        check_positive("consumer_budget", self.consumer_budget)
        if self.scale_down_mode not in ("drain", "kill"):
            raise ValueError(
                f"scale_down_mode must be 'drain' or 'kill', "
                f"got {self.scale_down_mode!r}"
            )

    def resolved_drain_consumers(self, num_task_types: int) -> int:
        """Per-service consumer count used by the drain ("reset").

        Three budgets' worth spread across the services — "sufficient
        consumers of each microservice" without exploding the deployment
        for ensembles with many task types.
        """
        return max(2, math.ceil(3 * self.consumer_budget / num_task_types))


class MicroserviceWorkflowSystem:
    """The complete emulated infrastructure of the paper's Fig. 1."""

    def __init__(
        self,
        ensemble: WorkflowEnsemble,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        window_hooks: Optional[
            Sequence[Callable[[WindowObservation], None]]
        ] = None,
    ):
        self.ensemble = ensemble
        self.config = config or SystemConfig()
        #: Telemetry tracer shared by every component of this system;
        #: defaults to the disabled NULL_TRACER (near-zero overhead).
        #: Timestamps come from the simulation clock, never wall time
        #: (bound below, once :meth:`_build_substrate` has made the loop).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Called with each WindowObservation at the end of run_window()
        #: — the periodic snapshot hook live consumers (metrics
        #: dashboards, progress meters) attach to.  Fixed at construction
        #: so the set of observers cannot drift mid-run.
        self.window_hooks: Tuple[Callable[[WindowObservation], None], ...] = (
            tuple(window_hooks) if window_hooks else ()
        )
        self._rngs = spawn_rngs(
            seed, ["service_times", "startup", "workload", "misc"]
        )

        #: The dependency tables both invokers route from.
        self.table = CompiledDependencyTable(ensemble)
        self._build_substrate()
        # The microservices in task-index order, the order of w(k) and m(k).
        self._services = [
            self.microservices[name] for name in ensemble.task_names()
        ]
        # Publishes already attributed to a window — a persistent
        # snapshot, so burst injections between windows are attributed
        # to the window that observes them.
        self._published_snapshot = {name: 0 for name in self.microservices}
        self.tracer.bind_clock(self.loop)

        self.window_index = 0
        self.history: List[WindowObservation] = []
        self._window_arrivals: Dict[str, int] = {}
        self._window_completions: Dict[str, int] = {}
        self._window_response_times: List[float] = []
        self._window_response_by_type: Dict[str, List[float]] = {}
        self._window_task_completions: Dict[str, int] = {}
        #: Streams registered through :meth:`add_arrival_stream`, in order.
        self._arrival_rngs: List[RngStream] = []
        # Run-local request ids for trace records: the invoker's global
        # request_id counter differs between same-seed runs in one
        # process, which would break trace byte-reproducibility.
        self._requests_traced = 0
        self._trace_request_ids: Dict[int, int] = {}

    # Substrate wiring ----------------------------------------------------
    def _build_substrate(self) -> None:
        """Create the event loop, microservices and invoker.

        Template method: :class:`repro.sim.batched.BatchedWorkflowSystem`
        overrides this to install the array-backed substrate while every
        other wiring step (dependency table, RNG streams, tracer binding)
        stays shared.  The two substrates must fork per-microservice RNG
        streams in the same ``ensemble.task_types`` order — fork order,
        not fork label, determines stream identity.
        """
        self.loop = EventLoop()
        self.microservices: Dict[str, Microservice] = {}
        for task_type in self.ensemble.task_types:
            self.microservices[task_type.name] = Microservice(
                task_type,
                loop=self.loop,
                rng=self._rngs["service_times"].fork(task_type.name),
                on_task_complete=self._on_task_complete,
                scale_down_mode=self.config.scale_down_mode,
                tracer=self.tracer,
            )
        self.invoker = WorkflowInvoker(
            self.loop,
            self.table,
            {name: ms.publish for name, ms in self.microservices.items()},
            on_workflow_complete=self._on_workflow_complete,
        )

    # Workload interface -------------------------------------------------
    @property
    def workload_rng(self) -> RngStream:
        """Seeded stream for arrival processes attached to this system."""
        return self._rngs["workload"]

    def rng_streams(self) -> Tuple[Dict[str, RngStream], List[RngStream]]:
        """The system's named streams and the arrival streams registered
        through :meth:`add_arrival_stream`, each at its serial position."""
        return self._rngs, self._arrival_rngs

    def add_arrival_stream(
        self, process, workflow_type: str, rate: float, rng: RngStream
    ) -> None:
        """Start one Poisson request stream on behalf of ``process``.

        ``workflow_type`` requests arrive ``rate`` per second, the gaps
        drawn from ``rng`` one exponential at a time.  Each arrival is
        one event: it submits the request, counts it in
        ``process.submitted`` and schedules its successor; once
        ``process.active`` is false the pending arrival fires as a no-op
        and the stream ends.  The batched substrate overrides this with
        a typed event row — same draws, same ``seq`` numbers.
        """
        self._arrival_rngs.append(rng)
        scale = 1.0 / rate
        loop = self.loop

        def fire() -> None:
            if process.active:
                self.submit(workflow_type)
                process.submitted += 1
                loop.schedule(float(rng.exponential(scale)), fire)

        loop.schedule(float(rng.exponential(scale)), fire)

    def submit(self, workflow_type: str) -> WorkflowRequest:
        """Submit one workflow request now (used by arrival processes)."""
        request = self.invoker.submit(workflow_type)
        self._window_arrivals[workflow_type] = (
            self._window_arrivals.get(workflow_type, 0) + 1
        )
        if self.tracer.enabled:
            self._trace_request_ids[request.request_id] = self._requests_traced
            self.tracer.write({
                "kind": "event.arrival", "t": None,
                "workflow": workflow_type,
                "request_id": self._requests_traced,
            })
            self._requests_traced += 1
        return request

    def inject_burst(self, counts: Mapping[str, int]) -> List[WorkflowRequest]:
        """Submit a burst of requests immediately (Section VI-D scenarios)."""
        requests: List[WorkflowRequest] = []
        for workflow_type, count in counts.items():
            if count < 0:
                raise ValueError(
                    f"burst count for {workflow_type!r} must be >= 0, got {count}"
                )
            for _ in range(count):
                requests.append(self.submit(workflow_type))
        return requests

    # Completion bookkeeping ----------------------------------------------
    def _on_task_complete(self, task_request: TaskRequest, now: float) -> None:
        name = task_request.task_type
        self._window_task_completions[name] = (
            self._window_task_completions.get(name, 0) + 1
        )
        if self.tracer.enabled:
            # Emitted before successor publishes, so a task's span always
            # precedes the publish records it triggers; metrics._fold_task_spans
            # folds it into the service-time / queue-wait / retry / waste families.
            self.tracer.write({
                "kind": "event.task_span", "t": None,
                "service": name,
                "request_id": self._trace_request_ids.get(
                    task_request.workflow.request_id, -1
                ),
                "published": task_request.published_at,
                "started": task_request.started_at,
                "deliveries": task_request.deliveries,
                "wasted": task_request.wasted_work,
            })
        self.invoker.handle_task_completion(task_request, now)

    def _on_workflow_complete(self, request: WorkflowRequest) -> None:
        wf_type = request.workflow_type
        self._window_completions[wf_type] = (
            self._window_completions.get(wf_type, 0) + 1
        )
        delay = request.response_time()
        self._window_response_times.append(delay)
        self._window_response_by_type.setdefault(wf_type, []).append(delay)
        if self.tracer.enabled:
            self.tracer.write({
                "kind": "event.workflow_complete", "t": None,
                "workflow": wf_type,
                "request_id": self._trace_request_ids.pop(
                    request.request_id, -1
                ),
                "response_time": delay,
            })

    # Control surface --------------------------------------------------------
    def apply_allocation(self, allocation: Sequence[int]) -> None:
        """Scale every microservice to the given consumer counts m(k).

        The vector is indexed by :meth:`WorkflowEnsemble.task_index` order.
        Raises if any entry is negative or not a finite whole number; the
        consumer-budget constraint is the *allocator's* responsibility
        (checked by :class:`repro.sim.env.MicroserviceEnv` and the
        baselines), as the paper's policy output layer enforces it.
        """
        allocation = np.asarray(allocation)
        if allocation.shape != (len(self._services),):
            raise ValueError(
                f"allocation has shape {allocation.shape}, expected "
                f"({len(self._services)},)"
            )
        counts = check_integral("allocation", allocation)
        if min(counts) < 0:
            raise ValueError(f"allocation must be non-negative: {allocation}")
        for ms, count in zip(self._services, counts):
            ms.scale_to(int(count))

    def current_allocation(self) -> np.ndarray:
        """Current consumer count per microservice."""
        return np.array(
            [ms.allocated for ms in self._services], dtype=np.int64
        )

    def wip_vector(self) -> np.ndarray:
        """The state w(k): work-in-progress per microservice."""
        return np.array([ms.wip for ms in self._services], dtype=np.float64)

    def _advance_window(self, end: float) -> None:
        """Advance simulation time to ``end`` (one window of events).

        Template method: the serial substrate runs the event loop
        directly; the batched substrate first attempts its vectorised
        window replay and falls back to the exact loop.
        """
        self.loop.run_until(end)

    def run_window(self) -> WindowObservation:
        """Advance one control window and return its observation.

        The observation takes the window's containers as they are and the
        system starts fresh ones, so nothing here mutates an observation
        after it is returned.
        """
        start = self.loop.now
        end = start + self.config.window_length
        self._advance_window(end)
        wip = [ms.wip for ms in self._services]
        task_publishes = {}
        for name, ms in self.microservices.items():
            published = ms.published_total
            task_publishes[name] = published - self._published_snapshot[name]
            self._published_snapshot[name] = published
        observation = WindowObservation(
            index=self.window_index,
            start_time=start,
            end_time=end,
            wip=np.array(wip, dtype=np.float64),
            allocation=self.current_allocation(),
            # Eq. (1); a sum of int counts is exact, as np.sum's was.
            reward=1.0 - float(sum(wip)),
            arrivals=self._window_arrivals,
            completions=self._window_completions,
            response_times=self._window_response_times,
            response_times_by_type=self._window_response_by_type,
            task_completions=self._window_task_completions,
            task_publishes=task_publishes,
        )
        self.history.append(observation)
        if self.tracer.enabled:
            services = self.microservices.items()
            self.tracer.write({
                "kind": "span.window", "t": None,
                "index": self.window_index,
                "start": start,
                "end": end,
                "reward": observation.reward,
                "wip": {n: ms.wip for n, ms in services},
                "allocation": {n: ms.allocated for n, ms in services},
                "busy": {n: ms.busy_consumers for n, ms in services},
                "starting": {n: ms.starting_consumers for n, ms in services},
                "queue_ready": {n: ms.ready_count for n, ms in services},
                "arrivals": sum(self._window_arrivals.values()),
                "completions": sum(self._window_completions.values()),
            })
        self.window_index += 1
        self._window_arrivals = {}
        self._window_completions = {}
        self._window_response_times = []
        self._window_response_by_type = {}
        self._window_task_completions = {}
        for hook in self.window_hooks:
            hook(observation)
        return observation

    def drain(self, max_windows: int = 40) -> int:
        """The paper's "reset": over-provision until nothing is waiting.

        "'Reset' means to provision sufficient consumers of each
        microservice to reduce WIP close to 0" (Section VI-A3).  The
        drain ends once no request is waiting in any queue; the WIP
        that remains is in service, which is the floor over-provisioning
        can reach (exact zero is a coin flip under background arrivals).
        Returns the number of windows the drain took — 0, with the
        allocation left untouched, when nothing was waiting to begin
        with — and gives up after ``max_windows``.  The previous
        allocation is *not* restored — callers apply a fresh one, as the
        RL loop does.
        """
        if not self._requests_waiting():
            return 0
        drain_allocation = np.full(
            self.ensemble.num_task_types,
            self.config.resolved_drain_consumers(self.ensemble.num_task_types),
            dtype=np.int64,
        )
        self.apply_allocation(drain_allocation)
        windows = 0
        while windows < max_windows:
            self.run_window()
            windows += 1
            if not self._requests_waiting():
                break
        return windows

    def _requests_waiting(self) -> bool:
        """True while any microservice queue holds an undelivered request."""
        return any(ms.ready_count for ms in self.microservices.values())

    # Conservation / sanity ------------------------------------------------
    def conservation_ok(self) -> bool:
        """No task request lost anywhere in the system."""
        return all(ms.conservation_ok() for ms in self.microservices.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MicroserviceWorkflowSystem({self.ensemble.name!r}, "
            f"t={self.loop.now:.0f}s, window={self.window_index})"
        )
