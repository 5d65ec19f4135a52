"""Differential: the batch fold against the record-by-record oracle.

``MetricsSink`` queues what it is written and folds a window's worth at
once, one list fold per kind (``MetricsAggregator.observe_many``); until
PR 24 it folded each record as it arrived.  The per-record fold is kept
in :mod:`tests.telemetry.reference_fold`.  Generated streams — all 12
kinds, retries and wasted work, unstamped prefixes, tails after the last
window, times that run backwards the way a fleet merge's do — and the
real traces of the ten ``sim_paper_traced`` seed-7 cells must fold to
the same ``metrics.json``, ``metrics.prom`` and window series by ``==``,
wherever the batch side is read and however its queue is cut.

The oracle folds schema v4, whose ``event.task_complete`` carried each
task's service time; it is fed :func:`tests.telemetry.schema_v4.as_v4`
of the v6 stream, and the two agree on everything but the two things the
dropped record moved (:func:`v5_view`).
"""

import json

import numpy as np
import pytest

from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    HpaAllocator,
    ProportionalToWipAllocator,
    UniformAllocator,
)
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator, make_env
from repro.sim import SystemConfig
from repro.telemetry import (
    RECORD_SCHEMAS,
    MemorySink,
    MetricsSink,
    Tracer,
    aggregate_trace,
    metrics,
    snapshot_to_json,
)

from tests.telemetry.reference_fold import ReferenceSink
from tests.telemetry.schema_v4 import as_v4

SERVICES = ("Ingest", "Align", "Call", "Merge")
WORKFLOWS = ("Type1", "Type2", "Type3")
STOP_MODES = ("drain", "kill", "cancel-starting", "idle", "drained")


def pick(rng, options):
    return options[int(rng.integers(len(options)))]


def whole(rng, low: int, high: int) -> int:
    """A Python int in ``[low, high)`` (records carry no numpy scalars)."""
    return int(rng.integers(low, high))


def real(rng, scale: float = 1.0) -> float:
    return float(rng.random()) * scale


def window_record(rng, index: int) -> dict:
    allocation = {s: whole(rng, 0, 6) for s in SERVICES}
    return {
        "kind": "span.window",
        "index": index,
        "start": 30.0 * index,
        "end": 30.0 * (index + 1),
        "reward": -real(rng, 40),
        "wip": {s: whole(rng, 0, 90) for s in SERVICES},
        "allocation": allocation,
        # A service that was allocated nothing: no utilization point.
        "busy": {s: whole(rng, 0, allocation[s] + 1) for s in SERVICES},
        "starting": {s: whole(rng, 0, 3) for s in SERVICES},
        "queue_ready": {s: whole(rng, 0, 70) for s in SERVICES},
        "arrivals": whole(rng, 0, 30),
        "completions": whole(rng, 0, 30),
    }


def event_record(rng, kind: str) -> dict:
    service = pick(rng, SERVICES)
    if kind == "event.arrival":
        payload = {"workflow": pick(rng, WORKFLOWS), "request_id": whole(rng, 0, 999)}
    elif kind == "event.workflow_complete":
        payload = {
            "workflow": pick(rng, WORKFLOWS),
            "request_id": whole(rng, 0, 999),
            # Whole seconds now and then: an int where a float is usual.
            "response_time": pick(rng, (real(rng, 2000), whole(rng, 0, 4000))),
        }
    elif kind in ("event.publish", "event.redeliver"):
        payload = {"queue": service, "depth": whole(rng, 0, 1200)}
    elif kind == "event.consumer_start":
        payload = {
            "service": service,
            "consumer_id": whole(rng, 0, 64),
            "startup_delay": 5 + real(rng, 5),
        }
    elif kind == "event.consumer_ready":
        payload = {
            "service": service,
            "consumer_id": whole(rng, 0, 64),
            "startup_latency": 5 + real(rng, 5),
        }
    elif kind == "event.consumer_stop":
        payload = {
            "service": service,
            "consumer_id": whole(rng, 0, 64),
            "mode": pick(rng, STOP_MODES),
        }
    elif kind == "event.task_span":
        published = real(rng, 900)
        retried = rng.random() < 0.3
        payload = {
            "service": service,
            "request_id": whole(rng, 0, 999),
            "published": published,
            "started": published + real(rng, 400),
            "deliveries": whole(rng, 2, 5) if retried else 1,
            # Tenths that do not sum exactly: a reordered or compensated
            # sum of these moves the last digit.
            "wasted": pick(rng, (0.1, 0.7, real(rng, 30))) if retried else 0.0,
        }
    elif kind == "event.fault":
        payload = {"fault": "consumer_crash", "target": service}
    elif kind == "span.collect":
        payload = {
            "lane": whole(rng, 0, 3),
            "episode": whole(rng, 0, 40),
            "steps": whole(rng, 1, 26),
            "reward": -real(rng, 900),
            "sim_time": real(rng, 750),
        }
    elif kind == "metric":
        payload = {
            "name": pick(rng, ("ddpg/critic_loss", "train/eval_reward")),
            "value": real(rng, 10) - 5,
            "step": pick(rng, (None, whole(rng, 0, 500))),
        }
    else:
        raise AssertionError(f"no generator for {kind}")
    assert payload.keys() == RECORD_SCHEMAS[kind], kind
    return {"kind": kind, **payload}


#: Hot kinds a window mostly holds, cold ones now and then.
EVENT_KINDS = sorted(set(RECORD_SCHEMAS) - {"span.window"})
EVENT_WEIGHTS = np.array([
    12 if k in ("event.publish", "event.task_span")
    else 4 if k in ("event.arrival", "event.workflow_complete")
    else 1
    for k in EVENT_KINDS
], dtype=float)
EVENT_WEIGHTS /= EVENT_WEIGHTS.sum()

#: What the aggregator ignores (no usable ``kind``) or only counts.
ODD_RECORDS = (
    {"kind": "event.not_registered", "detail": 1},
    {"t": 3.0},
    {"kind": None, "t": 4.0},
    {"kind": "metric", "name": "x", "value": 1.0, "step": None},
)


def generated_stream(seed: int) -> list:
    """One trace: an unstamped prefix, several windows, a windowless tail."""
    rng = np.random.default_rng(seed)
    unstamped = whole(rng, 0, 12)
    windows = whole(rng, 2, 7)
    records = []
    for index in range(windows + 1):  # the last round is the tail
        for kind in rng.choice(EVENT_KINDS, size=whole(rng, 0, 160), p=EVENT_WEIGHTS):
            records.append(event_record(rng, str(kind)))
        if index < windows:
            records.append(window_record(rng, index))
        if rng.random() < 0.2:
            records.append(dict(pick(rng, ODD_RECORDS)))
    clock = 0.0
    for position, record in enumerate(records):
        if "t" in record or record.get("kind") is None:
            continue
        if position < unstamped:
            record["t"] = None
            continue
        # Mostly forward; a fleet merge starts each cell's clock again.
        clock = 0.0 if rng.random() < 0.01 else clock + real(rng)
        record["t"] = pick(rng, (clock, clock, float(int(clock)), int(clock)))
    return records


def outputs(sink) -> tuple:
    snapshot = sink.snapshot()
    return (
        snapshot_to_json(snapshot),
        sink.to_prometheus(),
        snapshot["window_series"],
    )


def v5_view(folded: tuple) -> tuple:
    """``outputs`` less exactly what schema v5 moves on purpose: the
    ``event.task_complete`` series of ``repro_records_total``, and the
    observation count and mean of the clock gauge those records stamped."""
    metrics_json, prom, series = folded
    families = json.loads(metrics_json)["families"]
    counted = families["repro_records_total"]
    counted["series"] = [
        s for s in counted["series"]
        if s["labels"]["kind"] != "event.task_complete"
    ]
    for clock in families["repro_sim_time_seconds"]["series"]:
        del clock["observations"], clock["mean"]
    prom = [
        line for line in prom.splitlines()
        if not line.startswith('repro_records_total{kind="event.task_complete"} ')
    ]
    return families, prom, series


def reference_outputs(records) -> tuple:
    """The record-by-record oracle's ``v5_view`` of the same run: it folds
    schema v4, so it is fed :func:`as_v4` of the records."""
    sink = ReferenceSink()
    for record in as_v4(records):
        sink.write(record)
    return v5_view(outputs(sink))


READS = (
    lambda sink: sink.snapshot(),
    lambda sink: sink.window_snapshots,
    lambda sink: sink.to_prometheus(),
    lambda sink: sink.aggregator,
)


@pytest.mark.parametrize("seed", range(24))
def test_generated_stream_folds_as_record_by_record(seed, monkeypatch):
    records = generated_stream(seed)
    expected = reference_outputs(records)
    assert v5_view(outputs(aggregate_trace(records))) == expected
    # Reads at random positions, and a queue limit small enough to cut
    # windows anywhere.
    rng = np.random.default_rng(1000 + seed)
    monkeypatch.setattr(metrics, "PENDING_LIMIT", whole(rng, 2, 40))
    sink = MetricsSink()
    for record in records:
        sink.write(record)
        assert len(sink._pending) < metrics.PENDING_LIMIT
        if rng.random() < 0.03:
            pick(rng, READS)(sink)
    assert v5_view(outputs(sink)) == expected


def test_the_generator_draws_every_kind_and_every_trap():
    records = [r for seed in range(24) for r in generated_stream(seed)]
    assert {r.get("kind") for r in records} >= set(RECORD_SCHEMAS)
    assert any(r["kind"] == "event.task_span" and r["wasted"] > 0 for r in records if r.get("kind"))
    assert any(r.get("kind") and r["t"] is None for r in records)
    # An unstamped span has no ``t - started``: no service time to fold.
    assert any(r.get("kind") == "event.task_span" and r["t"] is None for r in records)
    assert records[-1].get("kind") != "span.window"


def test_a_read_between_two_records_changes_no_later_byte():
    records = generated_stream(99)[:400]
    reference = ReferenceSink()
    read_every_time = MetricsSink()
    # The oracle reads the v4 stream, the sink the v6 one; they are
    # compared wherever no v4 task_complete is waiting for its span.
    waiting = 0
    for record in as_v4(records):
        reference.write(record)
        if record.get("kind") == "event.task_complete":
            waiting += 1
            continue
        read_every_time.write(record)
        if record.get("kind") == "event.task_span" and record["t"] is not None:
            waiting -= 1
        if not waiting:
            assert v5_view(outputs(read_every_time)) == v5_view(outputs(reference))
    never_read = MetricsSink()
    for record in records:
        never_read.write(record)
    assert v5_view(outputs(never_read)) == v5_view(outputs(reference))


def test_observe_is_the_one_record_fold():
    records = generated_stream(5)
    one_by_one = metrics.MetricsAggregator()
    for record in records:
        one_by_one.observe_many((record,))
    at_once = metrics.MetricsAggregator()
    at_once.observe_many(records)
    assert snapshot_to_json(one_by_one.snapshot()) == snapshot_to_json(at_once.snapshot())
    assert one_by_one.to_prometheus() == at_once.to_prometheus()


# --- the benchmark's own traces --------------------------------------------
ALLOCATORS = (
    UniformAllocator,
    ProportionalToWipAllocator,
    DrsAllocator,
    HeftAllocator,
    HpaAllocator,
)


def sim_paper_traced_cells(seed: int = 7, steps: int = 40):
    """The ten cells of BENCHMARK.json's ``sim_paper_traced`` (5 allocators
    x the first MSD and the first LIGO burst, cell ``i`` on seed
    ``seed + 7919 * i``), traced into memory."""
    index = 0
    for dataset in ("msd", "ligo"):
        preset = dataset_preset(dataset)
        scenario = preset["bursts"][0]
        for allocator in ALLOCATORS:
            kept = MemorySink()
            sink = MetricsSink(kept)
            env = make_env(
                preset["builder"](),
                config=SystemConfig(consumer_budget=preset["budget"]),
                seed=seed + 7919 * index,
                background_rates=dict(scenario.background_rates),
                tracer=Tracer(sink),
            )
            evaluate_allocator(allocator(), env, scenario, steps)
            yield sink, kept.records
            index += 1


def test_sim_paper_traced_cells_fold_as_record_by_record():
    total = total_v4 = 0
    for live, records in sim_paper_traced_cells():
        total += len(records)
        total_v4 += len(as_v4(records))
        assert v5_view(outputs(live)) == reference_outputs(records)
    # The workload's record count on seed 7: 84,167 under schema v5, less
    # the 2,506 placement and release records v6 dropped.
    assert total == 81_661
    assert total_v4 == 111_578  # under schema v4: 29,917 task_complete more
