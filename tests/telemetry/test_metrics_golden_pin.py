"""Golden pin: fixed-seed traced runs must reproduce the recorded bytes.

The digests below were recorded from commit 4817eec, *before* the
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
``t - started`` of the task span written at the same instant.  Every
digest recorded under v4 is asserted through
:func:`tests.telemetry.schema_v4.as_v4` — the v5 run's records with the
v4 records put back, folded offline — so nothing but the dropped record
moved; next to them are the digests of the v5 run as it is.
"""

import hashlib
import json

import pytest

from repro.baselines import HeftAllocator
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim import SystemConfig
from repro.sim.faults import crash_one_consumer
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

# Schema v4: asserted through ``as_v4``.

#: Recorded from 4817eec; reproduced under the drain-to-zero reset.
REFERENCE_DRAIN_SHA256 = {
    "msd": "f122e5d24c86884c061d9dff3117a9bc87505e8fa1855c2475a08cce9a6e4d09",
    "ligo": "9f02b343d5b97c155d67a5d05ff9650039083408a794900385f89c460d08b8f9",
}
#: msd/ligo recorded from PR 18 (parent d1b520f): resets stop when
#: nothing waits; faults from 4817eec, as before.
GOLDEN_SHA256 = {
    "msd": "479c22c32c27d5dfd1bed89357e6394f07b6c96dd2c80b7a866022ae99b4fd9b",
    "ligo": "6d5e84613276aba11d4fea32dc5f0c92c6c55157d8ff9bc2203b9c3eb801406a",
    "faults": "1d0dd0c8e6ad0cff66908ba934f78a23b825ff0c30182d03115398580642f3b8",
}
#: Schema v5, recorded with parent b41154b: no
#: ``event.task_complete`` in the record stream, so none in
#: ``repro_records_total`` and one clock stamp fewer per task in
#: ``repro_sim_time_seconds``; every histogram and window row as under v4.
GOLDEN_V5_SHA256 = {
    "msd": "0b918631087253c8e215cd743b7841f480f2b26bfcf5021c4be73c38b7397bcd",
    "ligo": "c009ec2f1ab2ef4e4e723425069c2b69204238fa32b3dc94305bdf328acb2f03",
    "faults": "383f0d8ced216d89e5bfd931ce415f96991dd494d7544a1906ea26120230d900",
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
    assert live_digest(sink) == GOLDEN_V5_SHA256[dataset]


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
        assert crash_one_consumer(system.microservices[service])
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
    assert live_digest(sink) == GOLDEN_V5_SHA256["faults"]
