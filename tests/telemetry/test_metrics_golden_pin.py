"""Golden pin: fixed-seed traced runs must reproduce the recorded bytes.

The digests below were recorded from commit 4817eec, *before* the
metrics aggregator's record dispatch was compiled (per-record
``labels()`` resolution, ``insort`` histograms, whole-history window
rows).  Every later change to ``repro.telemetry`` that claims to be a
pure optimisation must leave them unchanged: one moved ulp in an
aggregate, one reordered series or record field, or one window row that
differs changes the hash.
"""

import hashlib
import json

import pytest

from repro.baselines import HeftAllocator
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim import SystemConfig
from repro.sim.faults import crash_one_consumer
from repro.telemetry import MemorySink, MetricsSink, Tracer, snapshot_to_json

GOLDEN_SHA256 = {
    "msd": "f122e5d24c86884c061d9dff3117a9bc87505e8fa1855c2475a08cce9a6e4d09",
    "ligo": "9f02b343d5b97c155d67a5d05ff9650039083408a794900385f89c460d08b8f9",
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


@pytest.mark.parametrize("dataset,seed", [("msd", 11), ("ligo", 12)])
def test_evaluate_allocator_cell_matches_recorded_bytes(dataset, seed):
    preset, env, sink = traced_env(dataset, seed)
    evaluate_allocator(HeftAllocator(), env, preset["bursts"][0], steps=40)
    assert sink.window_snapshots[-1]["completions"] > 0
    assert digest(sink) == GOLDEN_SHA256[dataset]


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
