"""One generated-scenario harness for every equality the simulator claims.

A :class:`Scenario` is a frozen record of one run: an ensemble (MSD,
LIGO for its AND-joins, a random DAG ensemble, or a ``cv=0`` pipeline
whose events tie), a consumer budget, a window length, a scale-down mode
(``kill`` nacks and redelivers), container start-ups (default, or an
override), a background workload — none, Poisson streams at rates that
leave some services idle and saturate others (sometimes ``stop()``ped
mid-plan), or a ``DeterministicArrivalProcess``, which stays an opaque
callback — whether a ``ChaosInjector`` crashes consumers at random
instants, and a plan of windows.  A plan step is ``(reset, allocations,
burst, crashes)``: a reset drain first, then each allocation applied in
turn (none: the last one is kept; zeros included, so services sit
without consumers), the burst's ``(workflow type, count)`` pairs, and
one consumer crash per named service.  :func:`generate` draws scenario
``seed`` from a numpy generator, the same whatever the scenario count;
its ``repr`` is the constructor call that rebuilds it.

:func:`check` drives one scenario through every system the repo claims
equal and raises :class:`Divergence` at the first pair that differs:

- the serial substrate against its verbatim oracle
  (``tests/sim/reference_serial.py``), on the snapshot after every window
  and on every trace record (the oracle's schema v4 against the v4 view
  of the system's, :func:`tests.telemetry.schema_v4.as_v4`);
- traced against untraced against a run under :class:`PhaseProfiler`;
- the serial substrate against :class:`BatchedWorkflowSystem`, untraced
  so the vectorised replay engages, refusing only the windows behind a
  callback process (:func:`expected_ineligible`) and aborting only on
  time ties;
- the live :class:`MetricsSink` snapshot against :func:`aggregate_trace`
  of the same records;
- the work-in-progress sample-path invariant of
  ``tests/sim/test_trace_invariants.py`` on the trace.

:func:`verify` shrinks a failing scenario (:func:`shrink`) and fails with
the shrunk ``Scenario(...)`` on one line.  The oracle's v4 records go to
a :class:`ReferenceRecorder`, not a ``repro`` ``Tracer``: under
``REPRO_SANITIZE=1`` a ``Tracer`` holds every record to today's schema,
which the system under test's records still meet.
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.sim import (
    BatchedWorkflowSystem,
    ChaosInjector,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.telemetry import (
    MemorySink,
    MetricsSink,
    PhaseProfiler,
    Tracer,
    aggregate_trace,
    snapshot_to_json,
)
from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType
from repro.workflows.generator import random_ensemble
from repro.workload import DeterministicArrivalProcess, PoissonArrivalProcess

from tests.conftest import set_startup_delay
from tests.sim.reference_serial import ReferenceSerialSystem
from tests.sim.test_trace_invariants import wip_mismatches
from tests.telemetry.schema_v4 import as_v4

#: Scenarios a tier-1 run checks; scenario ``k`` is the same whatever
#: the count, so raise it to run thousands offline.
SCENARIOS = 84
#: Replayed share of all batched windows, a margin below what the
#: tier-1 scenarios measure; what is left is the callback and ``cv=0``
#: scenarios and the time-tie aborts.
REPLAYED_SHARE_FLOOR = 0.75


def build_fixed_ensemble():
    """A ``cv=0`` pipeline: equal service times, so events tie."""
    return WorkflowEnsemble(
        name="fixed",
        task_types=[
            TaskType("A", 4.0, cv=0.0),
            TaskType("B", 4.0, cv=0.0),
            TaskType("C", 6.0, cv=0.0),
        ],
        workflow_types=[
            WorkflowType("W1", edges=[("A", "B"), ("B", "C")]),
            WorkflowType("W2", edges=[("A", "C")]),
        ],
    )


@dataclass(frozen=True)
class Scenario:
    seed: int
    ensemble: str  # "msd", "ligo", "random" or "fixed"
    budget: int
    window: float
    scale_down: str  # "drain" or "kill"
    startup: Optional[Tuple[float, float]]  # None: the default range
    background: Optional[str]  # None, "poisson" or "deterministic"
    rates: tuple  # ((workflow type, requests per second), ...)
    stop_before: Optional[int]  # the window a Poisson process stops before
    chaos: bool
    plan: tuple  # ((reset, allocations, burst, crashes), ...)


def build_ensemble(name, seed):
    if name == "random":
        return random_ensemble(4, 2, seed=seed)
    builders = {"msd": build_msd_ensemble, "ligo": build_ligo_ensemble,
                "fixed": build_fixed_ensemble}
    return builders[name]()


def generate(seed):
    """Scenario ``seed``, drawn from the union of every ingredient."""
    rng = np.random.default_rng(seed)
    name = ("msd", "ligo", "random", "fixed")[
        int(rng.choice(4, p=[0.35, 0.35, 0.15, 0.15]))
    ]
    ensemble = build_ensemble(name, seed)
    budget = int(rng.choice([6, 8, 14, 30, 120, 300], p=[0.2] * 4 + [0.1] * 2))
    windows = int(rng.integers(3, 9))
    # A 120 s window on 120 consumers or more simulates some 10^5 tasks
    # a run: the largest budgets take the shorter windows.
    lengths = [5.0, 10.0, 30.0, 120.0][: 3 if budget >= 120 else 4]
    weights = np.array([0.3, 0.3, 0.25, 0.15])[: len(lengths)]
    window = float(rng.choice(lengths, p=weights / weights.sum()))
    background = (None, "poisson", "deterministic")[
        int(rng.choice(3, p=[0.3, 0.55, 0.15]))
    ]
    # Up to about twice what the budget can serve, split unevenly, some
    # workflow types silent: services range from idle to saturated.
    names = ensemble.workflow_names()
    total = budget * rng.uniform(0.005, 0.12)
    shares = rng.random(len(names)) * (rng.random(len(names)) < 0.8)
    services = [t.name for t in ensemble.task_types]
    plan = []
    for step in range(windows):
        allocations = ()
        if step == 0 or rng.random() < 0.7:
            allocations = tuple(
                _allocation(rng, len(services), budget)
                for _ in range(int(rng.integers(1, 3)))
            )
        burst = ()
        if step == 0 or rng.random() < 0.3:
            # Log-uniform from one request to eight budgets' worth.
            burst = tuple(
                (name, int(np.exp(rng.uniform(0.0, np.log(8 * budget)))))
                for name in names
                if rng.random() < 0.6
            )
        crashes = tuple(
            services[int(rng.integers(len(services)))]
            for _ in range(int(rng.integers(0, 3)))
        )
        plan.append((step > 0 and rng.random() < 0.15, allocations, burst, crashes))
    return Scenario(
        seed=seed,
        ensemble=name,
        budget=budget,
        window=window,
        scale_down=("drain", "kill")[int(rng.integers(2))],
        startup=(None, (1.0, 1.0), (1.0, 6.0))[int(rng.integers(3))],
        background=background,
        rates=tuple(
            (name, float(total * share / max(shares.sum(), 1e-9)))
            for name, share in zip(names, shares)
        ) if background else (),
        stop_before=(
            int(rng.integers(1, windows))
            if background == "poisson" and rng.random() < 0.3
            else None
        ),
        chaos=bool(rng.random() < 0.15),
        plan=tuple(plan),
    )


def _allocation(rng, services, budget):
    """Consumers per service: the whole budget or part of it, some
    services left out, sometimes all of them (a zero allocation)."""
    weights = rng.random(services) * (rng.random(services) < 0.75)
    total = budget if rng.random() < 0.5 else int(rng.integers(0, budget + 1))
    shares = np.floor(weights / max(weights.sum(), 1e-9) * total)
    return tuple(int(n) for n in shares)


class ReferenceRecorder:
    """The oracle's tracer: stamps ``t`` and keeps each record as written.

    Only what the serial substrate calls on its tracer: ``enabled``,
    ``bind_clock`` and ``write``.
    """

    enabled = True

    def __init__(self):
        self.records = []
        self._loop = None

    def bind_clock(self, loop):
        self._loop = loop

    def write(self, record):
        record["t"] = float(self._loop._now)
        self.records.append(record)


def drive(system_cls, scenario, tracer=None):
    """Run ``scenario`` on a ``system_cls``: ``(system, [snapshot per window])``."""
    config = SystemConfig(
        consumer_budget=scenario.budget,
        window_length=scenario.window,
        scale_down_mode=scenario.scale_down,
    )
    ensemble = build_ensemble(scenario.ensemble, scenario.seed)
    system = system_cls(ensemble, config, seed=scenario.seed, tracer=tracer)
    if scenario.startup is not None:
        set_startup_delay(system, scenario.startup)
    rates = dict(scenario.rates)
    process = None
    if scenario.background == "poisson":
        process = PoissonArrivalProcess(rates).attach(system)
    elif scenario.background == "deterministic":
        process = DeterministicArrivalProcess(
            {name: 1.0 / rate for name, rate in rates.items() if rate > 0}
        ).attach(system)
    if scenario.chaos:
        ChaosInjector(system, consumer_crash_rate=0.05).start()
    snapshots = []
    for window, (reset, allocations, burst, crashes) in enumerate(scenario.plan):
        if window == scenario.stop_before:
            process.stop()
        if reset:
            system.drain(max_windows=2)
        for allocation in allocations:
            system.apply_allocation(allocation)
        if burst:
            system.inject_burst(dict(burst))
        for name in crashes:
            system.microservices[name].crash_one()
        system.run_window()
        snapshots.append(substrate_snapshot(system))
    if not system.conservation_ok():
        raise Divergence(f"{system_cls.__name__} lost a request")
    return system, snapshots


def expected_ineligible(scenario, windows):
    """The replay refusals ``scenario`` allows over ``windows`` batched
    windows: every one, when a callback process (the chaos injector or a
    deterministic background) is pending on every window."""
    return {"callbacks-pending": windows} if _callbacks(scenario) else {}


def _callbacks(scenario):
    return scenario.chaos or (
        scenario.background == "deterministic"
        and any(rate > 0 for _, rate in scenario.rates)
    )


def replayable(scenario):
    """Whether the replay should take every window of ``scenario``: no
    callback process, and no tie drawn on purpose (the ``cv=0``
    pipeline, or start-ups that all take the same time)."""
    return not (
        _callbacks(scenario)
        or scenario.ensemble == "fixed"
        or scenario.startup == (1.0, 1.0)
    )


class Divergence(AssertionError):
    """A claimed equality or invariant fails; ``window`` is the first
    plan window that shows it (``None``: it shows only at the end)."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


def _same_snapshots(what, left, right):
    for window, (a, b) in enumerate(zip(left, right)):
        if a != b:
            raise Divergence(f"{what}: snapshot diverged at window {window}", window)


def _window_of(records, index, snapshots):
    """The plan window ``records[index]`` belongs to: the system window
    is the ``span.window`` records before it, and a plan window ends at
    its snapshot's ``window_index`` (a reset drain runs windows too)."""
    window = sum(r["kind"] == "span.window" for r in records[:index])
    return sum(s["window_index"] <= window for s in snapshots)


def check(scenario, system_cls=MicroserviceWorkflowSystem):
    """Every equality on ``scenario``; returns the batched run's
    ``(windows, windows replayed)``.

    Four runs: the oracle and the system traced, the system untraced
    under the profiler (so traced, untraced and profiled are one
    comparison), and the batched substrate untraced.
    """
    oracle = ReferenceRecorder()
    _, reference = drive(ReferenceSerialSystem, scenario, oracle)
    memory = MemorySink()
    metrics = MetricsSink(downstream=memory)
    _, traced = drive(system_cls, scenario, Tracer(metrics))
    _same_snapshots("serial vs reference", traced, reference)
    records = memory.records
    # The oracle writes schema v4 less the placement records; the
    # system writes v6.
    mine = as_v4(records)
    if mine != oracle.records:
        first = next(
            (i for i, (a, b) in enumerate(zip(mine, oracle.records)) if a != b),
            min(len(mine), len(oracle.records)),
        )
        window = _window_of(mine, first, traced)
        raise Divergence(
            f"serial vs reference: trace diverged at window {window}", window
        )
    with PhaseProfiler():
        _, untraced = drive(system_cls, scenario)
    _same_snapshots("traced vs untraced under the profiler", untraced, traced)
    batched_system, batched = drive(BatchedWorkflowSystem, scenario)
    _same_snapshots("serial vs batched", untraced, batched)
    windows = batched_system.window_index
    ineligible = batched_system.fast_ineligible_reasons
    if ineligible != expected_ineligible(scenario, windows):
        raise Divergence(f"batched: replay refused {ineligible}")
    aborts = batched_system.fast_abort_reasons
    if not set(aborts) <= {"time-tie"}:
        raise Divergence(f"batched: replay aborted {aborts}")
    if snapshot_to_json(metrics.snapshot()) != snapshot_to_json(
        aggregate_trace(records).snapshot()
    ):
        raise Divergence("live metrics vs replayed metrics")
    spans, mismatches = wip_mismatches(records)
    if mismatches:
        window, service, reported, counted = mismatches[0]
        raise Divergence(
            f"span.window {window} reports wip {reported} for {service}, "
            f"the trace counts {counted}"
        )
    if spans != windows:
        raise Divergence(f"{spans} span.window records for {windows} windows")
    replayed = batched_system.fast_windows
    if replayed + sum(aborts.values()) + sum(ineligible.values()) != windows:
        raise Divergence("batched: a window neither replayed nor refused")
    return windows, replayed


def _failure(scenario, system_cls):
    """``check``'s :class:`Divergence` on ``scenario``, or ``None``."""
    try:
        check(scenario, system_cls)
    except Divergence as failure:
        return failure
    return None


def _with(plan, step, field, value):
    """``plan`` with field ``field`` of step ``step`` set to ``value``."""
    row = list(plan[step])
    row[field] = value
    return plan[:step] + (tuple(row),) + plan[step + 1 :]


def shrink(scenario, system_cls=MicroserviceWorkflowSystem):
    """A smaller failing scenario and its failure: the plan cut after the
    first diverging window, then steps dropped, bursts halved and crashes
    removed one at a time while a failure persists."""
    failure = _failure(scenario, system_cls)
    if failure.window is not None:
        scenario = replace(scenario, plan=scenario.plan[: failure.window + 1])

    def attempt(plan):
        nonlocal scenario, failure
        candidate = replace(scenario, plan=plan)
        found = _failure(candidate, system_cls)
        if found is not None:
            scenario, failure = candidate, found
        return found is not None

    step = 0
    while len(scenario.plan) > 1 and step < len(scenario.plan):
        if not attempt(scenario.plan[:step] + scenario.plan[step + 1 :]):
            step += 1
    for step in range(len(scenario.plan)):
        while any(n > 1 for _, n in scenario.plan[step][2]) and attempt(_with(
            scenario.plan, step, 2,
            tuple((name, max(1, n // 2)) for name, n in scenario.plan[step][2]),
        )):
            pass
        crash = 0
        while crash < len(scenario.plan[step][3]):
            crashes = scenario.plan[step][3]
            if not attempt(_with(
                scenario.plan, step, 3, crashes[:crash] + crashes[crash + 1 :]
            )):
                crash += 1
    return scenario, failure


def verify(scenario, system_cls=MicroserviceWorkflowSystem):
    """:func:`check`, failing with the shrunk scenario on one line."""
    try:
        return check(scenario, system_cls)
    except Divergence:
        shrunk, failure = shrink(scenario, system_cls)
    raise AssertionError(
        f"{failure} (shrunk from {len(scenario.plan)} windows to "
        f"{len(shrunk.plan)}); repro:\ncheck({shrunk!r})"
    )
