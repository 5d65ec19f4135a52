"""Serial/batched substrate equivalence: the pinning suite.

docs/SIMULATOR.md states the contract these tests enforce: a
:class:`repro.sim.batched.BatchedWorkflowSystem` driven through any
scenario from the same seed produces **byte-identical traces** and
**equal state snapshots** to the serial
:class:`repro.sim.system.MicroserviceWorkflowSystem`.  Every scenario
here runs both substrates side by side and compares
:func:`repro.sim.substrate.substrate_snapshot` after every window (and
raw trace bytes where tracing is on), so any divergence pins to the
first window it appears in.  The plain equality scenarios (bursts,
scaling, kill redelivery, Poisson arrivals, chaos, drains) are drawn by
the generated-scenario harness, ``tests/sim/scenarios.py``; the cases
here target what a generator reaches rarely or not at all.
"""

import numpy as np
import pytest

from repro.sim import (
    BatchedWorkflowSystem,
    ChaosInjector,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.telemetry import JsonlSink, Tracer
from repro.workflows import build_msd_ensemble
from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType
from repro.workload import DeterministicArrivalProcess, PoissonArrivalProcess
from repro.workload.bursts import MSD_BACKGROUND_RATES

from tests.conftest import set_startup_delay

SUBSTRATES = (MicroserviceWorkflowSystem, BatchedWorkflowSystem)


def run_both(scenario, **kwargs):
    """Run ``scenario(cls, **kwargs)`` on both substrates; return results."""
    return [scenario(cls, **kwargs) for cls in SUBSTRATES]


def arrival_rng_states(system):
    """Generator state of every registered arrival stream, the batched
    substrate's unconsumed prefetch handed back first."""
    for stream in getattr(system, "_arrivals", ()):
        stream.prefetch.sync()
    return [rng.generator.bit_generator.state for rng in system._arrival_rngs]


def assert_window_snapshots_equal(serial, batched):
    for k, (a, b) in enumerate(zip(serial, batched)):
        assert a == b, f"snapshot diverged at window {k}"
    assert len(serial) == len(batched)


class TestBurstEquivalence:
    def test_kill_while_starting_cancels_identically(self):
        """Scale up then immediately down: cancelled ready events match."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=9
            )
            system.apply_allocation([4, 4, 3, 3])
            system.apply_allocation([1, 0, 1, 0])  # kill mid-startup
            system.apply_allocation([2, 2, 2, 2])
            system.inject_burst({"Type1": 5})
            snaps = []
            for _ in range(4):
                system.run_window()
                snaps.append(substrate_snapshot(system))
            killed = sum(
                ms.consumers_killed_starting
                for ms in system.microservices.values()
            )
            return snaps, killed

        (serial, killed_s), (batched, killed_b) = run_both(scenario)
        assert killed_s == killed_b
        assert killed_s > 0, "scenario must cancel starting consumers"
        assert_window_snapshots_equal(serial, batched)


class TestTracedEquivalence:
    """With tracing on, the trace files are byte-for-byte identical."""

    def _traced_run(self, cls, path, scale_down_mode="drain", chaos=False):
        ensemble = build_msd_ensemble()
        with JsonlSink(path) as sink:
            system = cls(
                ensemble,
                SystemConfig(
                    consumer_budget=14, scale_down_mode=scale_down_mode
                ),
                seed=11,
                tracer=Tracer(sink),
            )
            system.apply_allocation([4, 4, 3, 3])
            system.inject_burst({"Type1": 7, "Type2": 3})
            injector = None
            if chaos:
                injector = ChaosInjector(
                    system, consumer_crash_rate=0.05
                ).start()
            for k in range(8):
                if k == 2:
                    system.apply_allocation([1, 1, 1, 1])
                if k == 4:
                    system.apply_allocation([4, 4, 3, 3])
                system.run_window()
            if injector is not None:
                injector.stop()
            snapshot = substrate_snapshot(system)
        return snapshot, path.read_bytes()

    @pytest.mark.parametrize("mode", ["drain", "kill"])
    def test_trace_bytes_identical(self, tmp_path, mode):
        snap_s, bytes_s = self._traced_run(
            MicroserviceWorkflowSystem, tmp_path / "serial.jsonl", mode
        )
        snap_b, bytes_b = self._traced_run(
            BatchedWorkflowSystem, tmp_path / "batched.jsonl", mode
        )
        assert bytes_s == bytes_b
        assert len(bytes_s) > 0
        assert snap_s == snap_b

    def test_trace_bytes_identical_under_chaos(self, tmp_path):
        """Redelivery-under-fault: crashes, traced."""
        snap_s, bytes_s = self._traced_run(
            MicroserviceWorkflowSystem,
            tmp_path / "serial.jsonl",
            "kill",
            chaos=True,
        )
        snap_b, bytes_b = self._traced_run(
            BatchedWorkflowSystem,
            tmp_path / "batched.jsonl",
            "kill",
            chaos=True,
        )
        assert bytes_s == bytes_b
        assert b"consumer_crash" in bytes_s
        assert snap_s == snap_b


class TestArrivalEquivalence:
    def test_typed_arrival_rows_take_the_callbacks_seqs(self):
        """A Poisson stream is a callback chain on the serial loop and
        typed rows on the batched one: same ``seq`` numbers, same
        ``processed`` count, same draws — executed row by row, replayed,
        and once the process is stopped (its pending row fires as a
        counted no-op and schedules nothing)."""

        def scenario(cls, exact):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=67
            )
            process = PoissonArrivalProcess(
                {"Type1": 0.7, "Type2": 0.0, "Type3": 0.2}
            ).attach(system)
            system.apply_allocation([4, 4, 3, 3])
            states = []
            for window in range(6):
                if window == 4:
                    process.stop()
                if exact:  # the event loop alone: no replay
                    system.loop.run_until(system.loop.now + 30.0)
                else:
                    system.run_window()
                states.append((
                    system.loop._seq_next, system.loop.processed,
                    system.loop.pending, process.submitted,
                    arrival_rng_states(system),
                ))
            return system, states

        _, serial = scenario(MicroserviceWorkflowSystem, exact=False)
        _, executed = scenario(BatchedWorkflowSystem, exact=True)
        replaying, replayed = scenario(BatchedWorkflowSystem, exact=False)
        assert serial == executed == replayed
        assert replaying.fast_windows == 6
        assert serial[3][3] == serial[5][3] > 0, "stop() must end the stream"
        # Two streams stopped: two no-op events, no seq taken for them.
        assert serial[5][1] - serial[3][1] >= 2
        assert not replaying.loop.callbacks_pending

class TestFastPath:
    def test_fast_windows_engage_and_match(self):
        """The vectorised replay both engages and stays equivalent."""

        def scenario(cls):
            system = set_startup_delay(cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=23,
            ), (0.0, 0.0))
            system.apply_allocation([4, 4, 3, 3])
            system.inject_burst({"Type1": 200, "Type2": 100, "Type3": 100})
            snaps = []
            for _ in range(12):
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, snaps

        (serial_sys, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.fast_windows > 0, (
            "vectorised replay never engaged — the fast path is untested"
        )
        assert_window_snapshots_equal(serial, batched)
        assert serial_sys.conservation_ok() and batched_sys.conservation_ok()

    def test_fast_path_aborts_fall_back_exactly(self):
        """A window the replay cannot handle falls back with no residue.

        Zero start-up delays make the first window's ready events tie;
        equivalence must survive the rollback/re-run cycle, and the
        windows after it — a small allocation running dry, stage by
        stage — are replayed.
        """

        def scenario(cls):
            system = set_startup_delay(cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=29,
            ), (0.0, 0.0))
            system.apply_allocation([2, 2, 2, 2])
            system.inject_burst({"Type1": 10})  # drains mid-run
            snaps = []
            for _ in range(20):
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, snaps

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.fast_abort_reasons == {"time-tie": 1}, (
            "scenario must exercise the abort/fallback path"
        )
        assert batched_sys.fast_windows == 19
        assert_window_snapshots_equal(serial, batched)

    def test_fixed_service_times_always_fall_back(self):
        """cv = 0 workloads tie on completion times: replay must refuse."""
        ensemble = WorkflowEnsemble(
            name="fixed",
            task_types=[
                TaskType("A", 10.0, cv=0.0),
                TaskType("B", 10.0, cv=0.0),
                TaskType("C", 15.0, cv=0.0),
            ],
            workflow_types=[
                WorkflowType("W1", edges=[("A", "B"), ("B", "C")]),
                WorkflowType("W2", edges=[("A", "C")]),
            ],
        )

        def scenario(cls):
            system = set_startup_delay(cls(
                ensemble, SystemConfig(consumer_budget=9), seed=31,
            ), (0.0, 0.0))
            system.apply_allocation([3, 3, 3])
            system.inject_burst(
                {name: 20 for name in ensemble.workflow_names()}
            )
            snaps = []
            for _ in range(8):
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, snaps

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.fast_windows == 0
        assert batched_sys.fast_abort_reasons["time-tie"] > 0
        assert_window_snapshots_equal(serial, batched)

    # One named case per event class the replay takes (each fails at the
    # parent of the change that made them replay events: fast_windows).
    def test_burst_while_every_consumer_is_starting(self):
        """READY rows are replayed: the first window is a fast one."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=40), seed=37
            )
            system.apply_allocation([40, 0, 0, 0])
            system.inject_burst({"Type1": 300, "Type2": 100})
            system.run_window()
            return system, substrate_snapshot(system)

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.microservices["Ingest"].tasks_completed > 100
        assert (batched_sys.fast_windows, batched_sys.fast_aborts) == (1, 0)
        assert serial == batched

    def test_queue_that_empties_with_nothing_upstream(self):
        """Consumers end idle; the idle order decides the next dispatch
        (a burst smaller than the pool) and the next scale-down victim."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=12), seed=41
            )
            system.apply_allocation([12, 0, 0, 0])
            system.inject_burst({"Type1": 30})
            snaps = []
            for k in range(4):
                if k == 2:
                    system.inject_burst({"Type2": 5})  # 5 of 12 idle slots
                if k == 3:
                    system.apply_allocation([6, 0, 0, 0])  # idle victims
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, snaps

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.fast_windows == 4
        ingest = batched[1]["microservices"]["Ingest"]
        assert {c["state"] for c in ingest["consumers"]} == {"idle"}, (
            "the queue must have run dry"
        )
        assert_window_snapshots_equal(serial, batched)

    def test_terminating_consumers_finish_inside_a_replayed_window(self):
        """Drain-mode scale-down: STOPPED, draining emptied, order kept."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=24), seed=43
            )
            system.apply_allocation([24, 0, 0, 0])
            system.inject_burst({"Type1": 400})
            snaps = [None]
            system.run_window()
            system.apply_allocation([4, 0, 0, 0])  # 20 busy consumers drain
            draining = len(system.microservices["Ingest"].draining)
            for _ in range(2):
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, draining, snaps

        (_, _, serial), (batched_sys, draining, batched) = run_both(scenario)
        assert draining == 20
        assert not batched_sys.microservices["Ingest"].draining
        assert batched_sys.fast_windows == 3
        assert batched_sys.microservices["Ingest"].allocated == 4
        assert_window_snapshots_equal(serial, batched)

    @pytest.mark.parametrize("kills", ["starting", "busy"])
    def test_cancelled_rows_due_in_the_window(self, kills):
        """Kill-while-starting and kill-mode busy kills leave cancelled
        rows on the heap; the replay drops them like the loop does."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(),
                SystemConfig(consumer_budget=24, scale_down_mode="kill"),
                seed=47,
            )
            system.apply_allocation([24, 0, 0, 0])
            if kills == "starting":
                system.apply_allocation([8, 0, 0, 0])
            system.inject_burst({"Type1": 400})
            snaps = []
            for k in range(3):
                if k == 1 and kills == "busy":
                    system.apply_allocation([8, 0, 0, 0])
                pending = system.loop.pending
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, pending, snaps

        (serial_sys, pending_s, serial), (batched_sys, pending_b, batched) = (
            run_both(scenario)
        )
        ingest = batched_sys.microservices["Ingest"]
        assert (ingest.consumers_killed_starting, ingest.consumers_killed_busy) == (
            (16, 0) if kills == "starting" else (0, 16)
        )
        assert pending_s == pending_b
        assert serial_sys.loop.pending == batched_sys.loop.pending
        assert not batched_sys.loop._cancelled
        assert batched_sys.fast_windows == 3
        assert_window_snapshots_equal(serial, batched)

    @pytest.mark.parametrize("downstream", [0, 3, -3])
    def test_publish_into_a_dry_or_idle_service_replays(self, downstream):
        """Ingest's completions publish to Preprocess mid-window: with no
        consumer there they only queue; with start-ups due on an empty
        queue (3) or consumers already idle (-3) each lands on the lowest
        free slot at its own timestamp.  All of it is replayed — and the
        idle order it leaves decides the next dispatch (a burst smaller
        than the pool) and the next scale-down victims."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=12), seed=53
            )
            if downstream < 0:  # consumers already idle when the burst lands
                system.apply_allocation([0, -downstream, 0, 0])
                system.run_window()
            system.apply_allocation([6, abs(downstream), 0, 0])
            system.inject_burst({"Type1": 40})
            snaps = []
            for k in range(4):
                if k == 2:
                    system.inject_burst({"Type2": 3})  # 3 of 6 idle slots
                if k == 3:
                    system.apply_allocation([2, 1, 0, 0])  # idle victims
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, snaps

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.fast_aborts == 0
        assert batched_sys.fast_windows == batched_sys.window_index
        preprocess = batched[0]["microservices"]["Preprocess"]
        assert (preprocess["counters"]["tasks_completed"] > 10) == (
            downstream != 0
        ), "the cascade must have run inside the first window"
        assert_window_snapshots_equal(serial, batched)

    def test_an_aborted_slice_leaves_no_residue(self):
        """``cv=0`` and zero start-up delays under Poisson arrivals: the
        burst's events tie, which is found after arrivals were pre-drawn
        and every chain has run —
        and the system equals one that never attempted: heap, cancelled
        set, ``seq`` counter, pool, every RNG state (the arrival
        streams' included)."""
        ensemble = WorkflowEnsemble(
            name="fixed",
            task_types=[TaskType("A", 4.0, cv=0.0), TaskType("B", 6.0, cv=0.5)],
            workflow_types=[WorkflowType("W", edges=[("A", "B")])],
        )

        def build(cls):
            system = set_startup_delay(cls(
                ensemble, SystemConfig(consumer_budget=8), seed=71,
            ), (0.0, 0.0))
            PoissonArrivalProcess({"W": 0.5}).attach(system)
            system.apply_allocation([4, 4])
            system.inject_burst({"W": 30})
            system.apply_allocation([2, 4])  # cancelled rows on the heap
            return system

        def loop_state(system):
            for ms in system.microservices.values():
                ms.prefetch.sync()
            return (
                sorted(system.loop._heap),
                set(system.loop._cancelled),
                system.loop._seq_next,
                system.pool.num_workflows,
                [
                    ms.rng.generator.bit_generator.state
                    for ms in system.microservices.values()
                ],
                arrival_rng_states(system),
            )

        attempted = build(BatchedWorkflowSystem)
        untouched = build(BatchedWorkflowSystem)
        before = substrate_snapshot(untouched)
        assert not attempted._try_fast_slice(attempted.loop.now + 30.0)
        assert attempted.fast_abort_reasons == {"time-tie": 1}
        assert substrate_snapshot(attempted) == before
        assert loop_state(attempted) == loop_state(untouched)
        serial = build(MicroserviceWorkflowSystem)
        batched = build(BatchedWorkflowSystem)
        for system in (serial, batched):
            system.run_window()
        assert batched.fast_aborts == 1
        assert substrate_snapshot(serial) == substrate_snapshot(batched)

    def test_cyclic_type_graph_is_statically_ineligible(self):
        """W1: A -> B, W2: B -> A.  No stage order chains every service
        after the ones that publish to it, which is decided once, when
        the tables are built: every window runs on the exact tier."""
        ensemble = WorkflowEnsemble(
            name="cyclic",
            task_types=[TaskType("A", 5.0, cv=0.5), TaskType("B", 5.0, cv=0.5)],
            workflow_types=[
                WorkflowType("W1", edges=[("A", "B")]),
                WorkflowType("W2", edges=[("B", "A")]),
            ],
        )

        def scenario(cls):
            system = cls(ensemble, SystemConfig(consumer_budget=4), seed=61)
            system.apply_allocation([2, 2])
            system.inject_burst({"W2": 40})
            for _ in range(2):
                system.run_window()
            return system, substrate_snapshot(system)

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys._stage_order is None
        assert batched_sys.fast_ineligible_reasons == {"type-cycle": 2}
        assert (batched_sys.fast_windows, batched_sys.fast_aborts) == (0, 0)
        assert serial == batched

    def test_poisson_arrivals_are_replayed(self):
        """Poisson streams are typed rows: every window of a run under
        background arrivals is replayed, requests landing on free
        consumers mid-window included."""

        def scenario(cls):
            system = cls(
                build_msd_ensemble(), SystemConfig(consumer_budget=40), seed=59
            )
            PoissonArrivalProcess(
                {name: 20 * rate for name, rate in MSD_BACKGROUND_RATES.items()}
            ).attach(system)
            system.apply_allocation([10, 10, 10, 10])
            snaps = []
            for _ in range(5):
                system.run_window()
                snaps.append(substrate_snapshot(system))
            return system, snaps

        (_, serial), (batched_sys, batched) = run_both(scenario)
        assert batched_sys.invoker.completed_total > 50
        assert not batched_sys.fast_ineligible_reasons
        assert (batched_sys.fast_windows, batched_sys.fast_aborts) == (5, 0)
        assert_window_snapshots_equal(serial, batched)

    def test_arrival_process_makes_every_window_ineligible(self):
        """A fixed-interval arrival process schedules Python callbacks:
        its next arrival is always pending, and the replay cannot see
        into it."""
        system = BatchedWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=59
        )
        DeterministicArrivalProcess({"Type1": 7.0}).attach(system)
        system.apply_allocation([4, 4, 3, 3])
        for _ in range(5):
            system.run_window()
        assert system.fast_ineligible_reasons == {"callbacks-pending": 5}
        assert (system.fast_windows, system.fast_aborts) == (0, 0)

    def test_chaos_injector_makes_every_window_ineligible(self):
        """The injector's next fault is a pending callback too."""
        system = BatchedWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=59
        )
        system.apply_allocation([4, 4, 3, 3])
        system.inject_burst({"Type1": 50})
        injector = ChaosInjector(system, consumer_crash_rate=0.01).start()
        for _ in range(3):
            system.run_window()
        injector.stop()
        assert system.fast_ineligible_reasons == {"callbacks-pending": 3}
        assert (system.fast_windows, system.fast_aborts) == (0, 0)


class TestBatchedApi:
    def test_submit_returns_pool_row_ordinal(self):
        system = BatchedWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=1
        )
        assert system.submit("Type1") == 0
        assert system.submit("Type2") == 1
        assert system.inject_burst({"Type1": 3}) == [2, 3, 4]
        assert system.pool.num_workflows == 5

    def test_unknown_workflow_type_raises(self):
        system = BatchedWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=1
        )
        with pytest.raises(KeyError, match="unknown workflow type"):
            system.submit("nope")

    def test_double_completion_guard(self):
        system = BatchedWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=1
        )
        system.apply_allocation([1, 1, 1, 1])
        task = system.submit("Type1")
        system.run_window()
        done = np.nonzero(system.pool.wf_task_done[task])[0]
        assert done.size > 0
        with pytest.raises(RuntimeError, match="completed twice"):
            local = int(done[0])
            name_index = None
            for g in range(system.ensemble.num_task_types):
                if system.table.local_of_task[0][g] == local:
                    name_index = g
            # Re-complete the already-done entry task.
            row = np.nonzero(
                (system.pool.task_workflow[: system.pool.num_tasks] == task)
                & (
                    system.pool.task_type[: system.pool.num_tasks]
                    == name_index
                )
            )[0][0]
            system.invoker.handle_task_completion(int(row), system.loop.now)
