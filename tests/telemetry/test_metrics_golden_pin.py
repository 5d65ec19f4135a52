"""Golden pin: fixed-seed traced runs must reproduce the recorded bytes.

The digests below were first recorded from commit 4817eec, *before* the
metrics aggregator's record dispatch was compiled (per-record
``labels()`` resolution, ``insort`` histograms, whole-history window
rows).  Every later change to ``repro.telemetry`` that claims to be a
pure optimisation must leave them unchanged: one moved ulp in an
aggregate, one reordered series or record field, or one window row that
differs changes the hash.

PR 18 changed behaviour on purpose: the reset drain stops once nothing
is waiting, so ``evaluate_allocator`` on a fresh env no longer emits 40
over-provisioned windows before the burst.  The two cells that reset
keep their pre-change digests, asserted with the historical drain
(:mod:`tests.sim.reference_drain`) patched back in — nothing but the
drain moved — next to the digests recorded with the drain as it is now.
The fault cell never resets and is unchanged.

Schema v5 dropped ``event.task_complete`` on purpose: it carried the
``t - started`` of the task span written at the same instant.  The
digests of the v4 stream are asserted through
:func:`tests.telemetry.schema_v4.as_v4` — the run's records with the v4
records put back, folded offline — so nothing but the dropped record
moved; next to them are the digests of the run as it is.

Schema v6 dropped ``event.placement``, ``event.release`` and the
``node`` of ``event.consumer_start`` on purpose: cluster placement fed
no state the agent observes, and went.  Every digest below was
re-recorded then, from the parent's (96b1b8c) records of the same cell
with exactly those records and that key filtered out, folded by this
aggregator: the filtered parent stream equals the v6 run's record for
record, so nothing but the dropped records moved.
"""

import hashlib
import json

import pytest

from repro.baselines import HeftAllocator
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim import SystemConfig
from repro.sim.system import MicroserviceWorkflowSystem
from repro.telemetry import (
    MemorySink,
    MetricsSink,
    Tracer,
    aggregate_trace,
    snapshot_to_json,
)

from tests.sim.reference_drain import reference_drain
from tests.telemetry.schema_v4 import as_v4

# Schema v4 as ``as_v4`` rebuilds it from a v6 run.

#: Reproduced under the drain-to-zero reset.  Re-recorded for schema v6
#: from parent 96b1b8c's v4 view with the placement records filtered out.
REFERENCE_DRAIN_SHA256 = {
    "msd": "013ee6d40ce63d913425126d1ebba2cd4bd39e67e6c9132fa62e7ec03055533a",
    "ligo": "ad42d926a4837cc0eee90676c5597c9383e01c3888c0a32df62aa3e9f454efbb",
}
#: Resets stop when nothing waits.  Re-recorded for schema v6 from parent
#: 96b1b8c's v4 view with the placement records filtered out.
GOLDEN_SHA256 = {
    "msd": "52dfd98317685924b85e5fa0e24edef4f91cc6e57e396e320688e6adae773f78",
    "ligo": "0de7cfbb47c5d8ecf550c9487626f7241c6fa77aa6171c3fd3121a681df120fb",
    "faults": "2be3f63d105982f955fdb8ec37e27cee03fa71a0b93039e811b745e9abf65a9e",
}
#: Schema v6, recorded from parent 96b1b8c's records with the placement
#: records filtered out: no ``event.placement`` / ``event.release`` in
#: the record stream, so none in ``repro_records_total``, no
#: ``repro_node_slots_used`` family, no ``node`` in a consumer start and
#: one clock stamp fewer per placement or release in
#: ``repro_sim_time_seconds``; every other family and window row as
#: under v5.
GOLDEN_V6_SHA256 = {
    "msd": "c9da0f8fe2dae8d37385aacf4507484f47735c6db4ad6425aff1ef2cdfe610e9",
    "ligo": "7c4378767b3842e703852a770f14bbc338a22b7dfd56bd7b80cae4404d1285c2",
    "faults": "f085f6c48aa44075e5b8d5a0ad26372ffbcc14037b29c01e9a6d0eaee00f826a",
}

def digest(sink: MetricsSink, records) -> str:
    """sha256 over metrics.json, metrics.prom and the record stream."""
    out = hashlib.sha256()
    out.update(snapshot_to_json(sink.snapshot()).encode())
    out.update(sink.to_prometheus().encode())
    out.update(json.dumps(records).encode())
    return out.hexdigest()


def live_digest(sink: MetricsSink) -> str:
    return digest(sink, sink.downstream.records)


def v4_digest(sink: MetricsSink) -> str:
    """The digest the v4 program wrote for the same run."""
    records = as_v4(sink.downstream.records)
    return digest(aggregate_trace(records), records)


def traced_env(dataset: str, seed: int):
    preset = dataset_preset(dataset)
    sink = MetricsSink(MemorySink())
    env = make_env(
        preset["builder"](),
        config=SystemConfig(consumer_budget=preset["budget"]),
        seed=seed,
        background_rates=preset["rates"],
        tracer=Tracer(sink),
    )
    return preset, env, sink


def evaluate_cell(dataset: str, seed: int) -> MetricsSink:
    preset, env, sink = traced_env(dataset, seed)
    evaluate_allocator(HeftAllocator(), env, preset["bursts"][0], steps=40)
    assert sink.window_snapshots[-1]["completions"] > 0
    return sink


@pytest.mark.parametrize("dataset,seed", [("msd", 11), ("ligo", 12)])
def test_evaluate_allocator_cell_matches_recorded_bytes(dataset, seed):
    sink = evaluate_cell(dataset, seed)
    assert v4_digest(sink) == GOLDEN_SHA256[dataset]
    assert live_digest(sink) == GOLDEN_V6_SHA256[dataset]


@pytest.mark.parametrize("dataset,seed", [("msd", 11), ("ligo", 12)])
def test_evaluate_allocator_cell_matches_pre_change_bytes_under_reference_drain(
    dataset, seed, monkeypatch
):
    monkeypatch.setattr(MicroserviceWorkflowSystem, "drain", reference_drain)
    sink = evaluate_cell(dataset, seed)
    assert v4_digest(sink) == REFERENCE_DRAIN_SHA256[dataset]


def fault_cell() -> MetricsSink:
    """Crashes plus a kill-path scale-down on a loaded MSD system."""
    _, env, sink = traced_env("msd", 13)
    system = env.system
    system.inject_burst({"Type3": 12})
    system.apply_allocation([4, 4, 3, 3])
    system.run_window()
    for service in ("Preprocess", "Segment"):
        assert system.microservices[service].crash_one()
    system.apply_allocation([0, 6, 4, 4])
    for _ in range(6):
        system.run_window()
    return sink


def test_fault_injected_cell_matches_recorded_bytes():
    """The ``redeliver``, ``fault``, ``task_retries`` and ``wasted_work``
    folds all see records, and fold them to the recorded bytes."""
    sink = fault_cell()
    families = sink.snapshot()["families"]
    for name in (
        "repro_redeliveries_total", "repro_faults_total",
        "repro_task_retries_total", "repro_wasted_work_seconds",
    ):
        assert families[name]["series"], name
    assert v4_digest(sink) == GOLDEN_SHA256["faults"]
    assert live_digest(sink) == GOLDEN_V6_SHA256["faults"]
