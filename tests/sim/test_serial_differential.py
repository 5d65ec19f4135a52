"""Generated-scenario differential suite: serial substrate vs its oracle.

The serial task path — publish, dispatch, finish, route — lost most of
its Python frames: the microservice owns its queue and delivers,
schedules and acks inline, and a publish calls its dispatch directly.
``tests/sim/reference_serial.py`` keeps the path as it was, as overrides
of today's classes.  Each seed here draws an ensemble (MSD, LIGO for its
AND-joins, a random DAG ensemble, or a ``cv=0`` pipeline whose events
tie), a budget, a window length, a scale-down mode (``kill`` nacks and
redelivers), Poisson background or none, and a plan of per-window
allocations (zeros included; often two back to back), bursts, consumer
crashes and reset drains; and whether the chaos injector crashes
consumers at random instants.  Both systems run traced and must agree on
:func:`repro.sim.substrate.substrate_snapshot` after every window and on
every trace record (the oracle's v4 trace against the v4 view of the
system's, :func:`tests.telemetry.schema_v4.as_v4`); an untraced
production run must reach the same snapshots.  The oracle's v4 records
go to a :class:`ReferenceRecorder`, not a ``repro`` ``Tracer``: under
``REPRO_SANITIZE=1`` a ``Tracer`` holds every record to today's
schema, which the system under test's records still meet.
"""

import numpy as np
import pytest

from repro.sim import (
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.sim.faults import ChaosInjector
from repro.telemetry import MemorySink, Tracer
from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workflows.generator import random_ensemble
from repro.workload import PoissonArrivalProcess

from tests.conftest import set_startup_delay
from tests.sim.reference_serial import ReferenceSerialSystem
from tests.sim.test_replay_differential import build_fixed_ensemble
from tests.telemetry.schema_v4 import as_v4

SCENARIOS = 24


def build_random_ensemble(seed):
    return lambda: random_ensemble(4, 2, seed=seed)


def generate(seed):
    """Scenario ``seed``: ``(builder, config, startup, rates, chaos, plan)``.

    A plan step is ``(reset, allocations, burst, crashes)``.
    """
    rng = np.random.default_rng(seed)
    builder = (
        build_msd_ensemble,
        build_ligo_ensemble,
        build_random_ensemble(seed),
        build_fixed_ensemble,
    )[int(rng.choice(4, p=[0.3, 0.3, 0.2, 0.2]))]
    ensemble = builder()
    budget = int(rng.choice([6, 14, 30]))
    window = float(rng.choice([10.0, 30.0]))
    config = SystemConfig(
        consumer_budget=budget,
        window_length=window,
        scale_down_mode=("drain", "kill")[int(rng.integers(2))],
    )
    startup = (1.0, float(rng.choice([1.0, 6.0])))
    names = ensemble.workflow_names()
    rates = (
        {name: float(rng.uniform(0.0, 0.3)) for name in names}
        if rng.random() < 0.6
        else {}
    )
    chaos = rng.random() < 0.4
    services = [t.name for t in ensemble.task_types]
    plan = []
    for step in range(int(rng.integers(4, 8))):
        allocations = []
        for _ in range(int(rng.integers(1, 3))):
            weights = rng.random(len(services)) * (
                rng.random(len(services)) < 0.8
            )
            total = int(rng.integers(0, budget + 1))
            allocations.append(
                np.floor(weights / max(weights.sum(), 1e-9) * total).astype(int)
            )
        burst = {
            name: int(rng.integers(1, 8 * budget))
            for name in names
            if step == 0 or rng.random() < 0.3
        }
        crashes = [
            services[int(rng.integers(len(services)))]
            for _ in range(int(rng.integers(0, 3)))
        ]
        reset = step > 0 and rng.random() < 0.2
        plan.append((reset, allocations, burst, crashes))
    return builder, config, startup, rates, chaos, plan


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


def run(cls, seed, tracer=None):
    """Drive one system through scenario ``seed``: its snapshots."""
    builder, config, startup, rates, chaos, plan = generate(seed)
    system = set_startup_delay(
        cls(builder(), config, seed=seed, tracer=tracer), startup
    )
    if rates:
        PoissonArrivalProcess(rates).attach(system)
    if chaos:
        ChaosInjector(system, consumer_crash_rate=0.05).start()
    snapshots = []
    for reset, allocations, burst, crashes in plan:
        if reset:
            system.drain(max_windows=4)
        for allocation in allocations:
            system.apply_allocation(allocation)
        if burst:
            system.inject_burst(burst)
        for name in crashes:
            system.microservices[name].crash_one()
        system.run_window()
        snapshots.append(substrate_snapshot(system))
    assert system.conservation_ok(), f"scenario {seed} lost a request"
    return snapshots


@pytest.mark.parametrize("seed", range(SCENARIOS))
def test_serial_path_equals_reference(seed):
    oracle = ReferenceRecorder()
    reference = run(ReferenceSerialSystem, seed, oracle)
    sink = MemorySink()
    serial = run(MicroserviceWorkflowSystem, seed, Tracer(sink))
    assert len(serial) == len(reference)
    for window, (a, b) in enumerate(zip(serial, reference)):
        assert a == b, f"scenario {seed}: snapshot diverged at window {window}"
    # The oracle writes schema v4 less the placement records; the
    # system writes v6.
    assert as_v4(sink.records) == oracle.records, f"scenario {seed}: traces differ"
    untraced = run(MicroserviceWorkflowSystem, seed)
    assert untraced == serial, f"scenario {seed}: tracing changed the run"


def test_generator_draws_every_ingredient():
    """The tier-1 seeds cover what the suite claims to draw."""
    seen = set()
    for seed in range(SCENARIOS):
        builder, config, _, rates, chaos, plan = generate(seed)
        seen.add(config.scale_down_mode)
        seen.add(builder().name if builder is not build_fixed_ensemble else "cv=0")
        seen.update(
            name
            for name, drawn in (
                ("poisson", rates),
                ("chaos", chaos),
                ("reset", any(step[0] for step in plan)),
                ("crash", any(step[3] for step in plan)),
            )
            if drawn
        )
    assert {
        "drain", "kill", "cv=0", "poisson", "chaos", "reset", "crash",
    } <= seen, seen

