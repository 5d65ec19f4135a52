"""The serial microservice's consumer indexes and the per-event call budget.

``Microservice._dispatch`` takes "the first idle consumer in list order"
from a heap keyed by birth ordinal instead of scanning ``consumers``,
``_pick_victim`` finds the first starting one the same way, and
``crash_one`` the first busy one.  The first test keeps the three scans
as brute-force oracles and checks every single dispatch pick, every
scale-down victim and every crash victim against them at C = 512 under
random scaling (both scale-down modes, often two allocations back to
back), crashes and bursts — and the whole run against the batched twin.
The second pins what one simulated event costs in interpreter calls, an
exact count, so a bookkeeping walk creeping back into the hot path fails
here rather than in a wall-clock benchmark.
"""

import itertools
import sys

import numpy as np
import pytest

from repro.baselines import HeftAllocator
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator
from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceWorkflowSystem,
    SystemConfig,
    crash_one_consumer,
    substrate_snapshot,
)
from repro.sim.consumer import ConsumerState
from repro.sim.env import MicroserviceEnv
from repro.workflows import build_msd_ensemble
from repro.workload import PoissonArrivalProcess

from tests.sim.reference_drain import reference_drain

BUDGET = 512


class DispatchOracle:
    """Checks every pick of every microservice against the linear scan.

    ``_dispatch`` is where a message meets a consumer: it hands the
    oldest ready messages to idle consumers, first idle first, until
    either runs out.  The oracle wraps it — the attribute a publish, a
    redelivery, a start-up and a finish call — scans ``consumers`` for
    the idle ones before each call, and
    checks after it that the k-th oldest message went to the k-th idle
    consumer of the scan, and nothing else moved.
    :meth:`check_every_delivery_seen` proves the wrapper saw every pick:
    each delivery ends acked, nacked or still unacked.
    """

    def __init__(self, system):
        self.picks = 0
        self.removals = 0
        self.crashes = 0
        for ms in system.microservices.values():
            self._watch(ms)

    def _watch(self, ms):
        queue = ms.queue
        dispatch = ms._dispatch

        def scanning_dispatch():
            idle = [c for c in ms.consumers if c.state is ConsumerState.IDLE]
            ready = list(itertools.islice(ms._ready, len(idle)))
            waiting = queue.ready_count
            dispatch()
            for k, consumer in enumerate(idle):
                if k < len(ready):
                    assert consumer.current_request is ready[k], (
                        f"{ms.name}: message {k} of this dispatch did not "
                        f"go to consumer {consumer.trace_id}, idle "
                        f"consumer {k} of the scan"
                    )
                    assert consumer.state is ConsumerState.BUSY
                    self.picks += 1
                else:
                    assert consumer.state is ConsumerState.IDLE, (
                        f"{ms.name}: consumer {consumer.trace_id} left idle "
                        f"with no message for it"
                    )
            assert queue.ready_count == waiting - len(ready)

        ms._dispatch = scanning_dispatch

        pick_victim, crash_one = ms._pick_victim, ms.crash_one

        def first(state):
            return next((c for c in ms.consumers if c.state is state), None)

        def scanning_pick_victim():
            """Scale-down order: first starting, else first idle, else
            the newest (busy) consumer — each by a scan of the pool."""
            victim = pick_victim()
            expected = (
                first(ConsumerState.STARTING)
                or first(ConsumerState.IDLE)
                or ms.consumers[-1]
            )
            assert victim is expected, (
                f"{ms.name}: removed consumer {victim.trace_id}, the scan "
                f"says {expected.trace_id}"
            )
            self.removals += 1
            return victim

        def scanning_crash_one():
            """Crash order: the first busy consumer, else the first idle
            one — each by a scan of the pool, taken before the crash."""
            expected = first(ConsumerState.BUSY) or first(ConsumerState.IDLE)
            crashed = crash_one()
            assert crashed == (expected is not None)
            if crashed:
                assert expected.state is ConsumerState.STOPPED, (
                    f"{ms.name}: the crash spared consumer "
                    f"{expected.trace_id}, the one the scan picks"
                )
                self.crashes += 1
            return crashed

        ms._pick_victim = scanning_pick_victim
        ms.crash_one = scanning_crash_one

    def check_every_delivery_seen(self, system):
        delivered = sum(
            ms.queue.acked_total + ms.queue.redelivered_total
            + ms.queue.unacked_count
            for ms in system.microservices.values()
        )
        assert self.picks == delivered, (
            f"the oracle checked {self.picks} picks of {delivered} deliveries"
        )


def drive(cls, mode, seed, oracle=False):
    """Random scaling, crashes and bursts; a snapshot after every window."""
    system = cls(
        build_msd_ensemble(),
        SystemConfig(
            consumer_budget=BUDGET,
            window_length=10.0,
            scale_down_mode=mode,
            startup_delay_range=(1.0, 4.0),
        ),
        seed=seed,
    )
    checker = DispatchOracle(system) if oracle else None
    script = np.random.default_rng(seed)
    names = list(system.microservices)
    snapshots = []
    for _ in range(14):
        # Often twice in a row: the second call cancels consumers the
        # first one has only just started.
        for _ in range(int(script.integers(1, 3))):
            shares = script.dirichlet(np.ones(len(names)))
            total = int(script.integers(0, BUDGET + 1))
            system.apply_allocation(np.floor(shares * total).astype(int))
        if script.random() < 0.6:
            system.inject_burst({
                "Type1": int(script.integers(0, 400)),
                "Type2": int(script.integers(0, 200)),
                "Type3": int(script.integers(0, 200)),
            })
        for _ in range(int(script.integers(0, 4))):
            crash_one_consumer(
                system.microservices[names[int(script.integers(len(names)))]]
            )
        system.run_window()
        snapshots.append(substrate_snapshot(system))
    assert system.conservation_ok()
    if checker is not None:
        checker.check_every_delivery_seen(system)
    return snapshots, checker


@pytest.mark.parametrize("mode", ["drain", "kill"])
def test_every_pick_is_the_first_idle_consumer(mode):
    serial, checker = drive(MicroserviceWorkflowSystem, mode, 21, oracle=True)
    assert checker.picks > 5_000, "scenario must actually dispatch"
    assert checker.removals > 1_000, "scenario must actually scale down"
    assert checker.crashes > 10, "scenario must actually crash consumers"
    batched, _ = drive(BatchedWorkflowSystem, mode, 21)
    for window, (a, b) in enumerate(zip(serial, batched)):
        assert a == b, f"snapshot diverged at window {window}"


def calls_per_event(cls):
    """Interpreter calls per processed event over one MSD heft cell.

    Counts what cProfile counts — ``call`` and ``c_call`` profile
    events — over ``evaluate_allocator`` (reset, burst, 30 controlled
    windows), allocator and environment included.  Returns the events
    processed with it, as the guard that the cell itself is unchanged.
    """
    preset = dataset_preset("msd")
    scenario = preset["bursts"][0]
    system = cls(
        preset["builder"](),
        SystemConfig(consumer_budget=preset["budget"]),
        seed=1000,
    )
    PoissonArrivalProcess(dict(scenario.background_rates)).attach(system)
    env = MicroserviceEnv(system)
    allocator = HeftAllocator()
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        evaluate_allocator(allocator, env, scenario, 30)
    finally:
        sys.setprofile(None)
    return system.loop.processed, calls / system.loop.processed


def check_call_budget(processed):
    # Before the exact-tier event kernel: 83.3 serial, 49.3 batched
    # (CPython 3.11; the same count reads 76.6 on the sim_paper mix).
    # Serial budget 45.0 until a task's publish -> dispatch -> finish ->
    # route path lost its frames: 36.5 -> 24.5 here (24.3 behind the
    # reference drain), 37.5 -> 25.7 on the sim_paper mix (seed 7,
    # 58 982 events); the budget is this cell's count plus under 5 %.
    for cls, budget in (
        (MicroserviceWorkflowSystem, 25.6),
        (BatchedWorkflowSystem, 49.3),
    ):
        events, calls = calls_per_event(cls)
        assert events == processed, "the cell itself changed"
        assert calls <= budget


def test_call_budget_per_simulated_event():
    # 3463 recorded from PR 18 (parent d1b520f): the reset on the fresh
    # env is free, so the cell is the burst and its 30 windows only.
    check_call_budget(processed=3463)


def test_call_budget_with_the_pre_change_reset_drain(monkeypatch):
    # 3678 is the count the budget was first pinned on: the same cell
    # behind the 40-window drain-to-zero reset.
    monkeypatch.setattr(MicroserviceWorkflowSystem, "drain", reference_drain)
    check_call_budget(processed=3678)
