"""O(1) TDS read accounting == the per-read reference.

:class:`repro.sim.tds.TaskDependencyService` only advances its
round-robin pointer while every replica is up and derives the
per-replica counts when they can be seen.  These tests hold it to
:mod:`tests.sim.reference_tds` (the pre-rewrite code, every read walked
through ``_pick``): over random operation sequences the pointer, the
per-replica counts and the operation at which ``TdsUnavailableError``
is raised must be identical; and a quorum lost in the middle of a
window must stop both substrates at the same event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.sim.tds import TaskDependencyService, TdsUnavailableError
from repro.workflows import build_msd_ensemble
from repro.workload import PoissonArrivalProcess
from repro.workload.bursts import MSD_BACKGROUND_RATES
from tests.sim.reference_tds import ReferenceTaskDependencyService

ENSEMBLE = build_msd_ensemble()

QUERIES = {
    "entry_tasks": ("Type1",),
    "successors": ("Type3", "Preprocess"),
    "predecessors": ("Type1", "Preprocess"),
}

operations = st.lists(
    st.one_of(
        st.tuples(st.just("account"), st.integers(0, 40)),
        st.tuples(st.just("query"), st.sampled_from(sorted(QUERIES))),
        st.tuples(st.just("fail"), st.integers(0, 4)),
        st.tuples(st.just("recover"), st.integers(0, 4)),
        st.tuples(st.just("distribution"), st.none()),
        st.tuples(st.just("servers"), st.none()),
    ),
    max_size=60,
)


def apply(tds, op, arg, replicas):
    """One operation's observable outcome (value, or the error raised)."""
    try:
        if op == "account":
            return tds.account_reads(arg)
        if op == "query":
            return getattr(tds, arg)(*QUERIES[arg])
        if op == "fail":
            return tds.fail_server(arg % replicas)
        if op == "recover":
            return tds.recover_server(arg % replicas)
        if op == "distribution":
            return tds.read_distribution()
        return [(s.server_id, s.up, s.reads_served) for s in tds.servers]
    except TdsUnavailableError as error:
        return ("unavailable", str(error))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(replicas=st.sampled_from([1, 3, 5]), ops=operations)
def test_accounting_matches_per_read_reference(replicas, ops):
    tds = TaskDependencyService(ENSEMBLE, replicas=replicas)
    reference = ReferenceTaskDependencyService(ENSEMBLE, replicas=replicas)
    for step, (op, arg) in enumerate(ops):
        got = apply(tds, op, arg, replicas)
        want = apply(reference, op, arg, replicas)
        assert got == want, f"step {step}: {op}({arg})"
        # Neither of these looks at (or brings up to date) the counts.
        assert tds._next == reference._next, f"pointer after step {step}"
        assert tds.healthy_count == reference.healthy_count
    assert tds.read_distribution() == reference.read_distribution()


def test_replica_up_flag_is_the_services_to_write():
    tds = TaskDependencyService(ENSEMBLE)
    with pytest.raises(AttributeError):
        tds.servers[0].up = False


def test_counts_are_current_whenever_the_replicas_are_handed_out():
    tds = TaskDependencyService(ENSEMBLE, replicas=3)
    tds.account_reads(7)
    assert [s.reads_served for s in tds.servers] == [3, 2, 2]
    tds.entry_tasks("Type1")
    assert [s.reads_served for s in tds.servers] == [3, 3, 2]


class TestQuorumLostMidWindow:
    """Both substrates stop at the same event, in the same state."""

    @staticmethod
    def run(cls):
        system = cls(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=11
        )
        PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
        system.apply_allocation([4, 4, 3, 3])
        system.inject_burst({"Type1": 60, "Type2": 30, "Type3": 30})
        snapshots = []
        for _ in range(2):
            system.run_window()
            snapshots.append(substrate_snapshot(system))
        # One replica down from the third window's start (reads skip
        # it), a second one 7.3 s in: the next read has no quorum.
        system.tds.fail_server(2)
        system.loop.schedule(7.3, system.tds.fail_server, 0)
        with pytest.raises(TdsUnavailableError, match="quorum"):
            system.run_window()
        snapshots.append(substrate_snapshot(system))
        return snapshots

    def test_same_event_same_state(self):
        serial = self.run(MicroserviceWorkflowSystem)
        batched = self.run(BatchedWorkflowSystem)
        for window, (a, b) in enumerate(zip(serial, batched)):
            assert a == b, f"snapshot diverged at window {window}"
        at_failure = serial[-1]
        # The failing read belongs to an event inside the third window.
        assert 60.0 + 7.3 <= at_failure["loop"]["now"] < 90.0
        assert at_failure["loop"]["processed"] > serial[-2]["loop"]["processed"]
        assert at_failure["tds"]["healthy"] == 1
        assert at_failure["tds"]["reads"]["2"] == serial[-2]["tds"]["reads"]["2"]
