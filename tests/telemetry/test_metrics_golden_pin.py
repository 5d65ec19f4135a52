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
from repro.telemetry import MemorySink, MetricsSink, Tracer, snapshot_to_json

from tests.sim.reference_drain import reference_drain

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


def digest(sink: MetricsSink) -> str:
    """sha256 over metrics.json, metrics.prom and the record stream."""
    out = hashlib.sha256()
    out.update(snapshot_to_json(sink.snapshot()).encode())
    out.update(sink.to_prometheus().encode())
    out.update(json.dumps(sink.downstream.records).encode())
    return out.hexdigest()


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
    assert digest(evaluate_cell(dataset, seed)) == GOLDEN_SHA256[dataset]


@pytest.mark.parametrize("dataset,seed", [("msd", 11), ("ligo", 12)])
def test_evaluate_allocator_cell_matches_pre_change_bytes_under_reference_drain(
    dataset, seed, monkeypatch
):
    monkeypatch.setattr(MicroserviceWorkflowSystem, "drain", reference_drain)
    assert (
        digest(evaluate_cell(dataset, seed)) == REFERENCE_DRAIN_SHA256[dataset]
    )


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
    assert digest(sink) == GOLDEN_SHA256["faults"]
