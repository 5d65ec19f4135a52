"""Report edge cases: empty traces, windowless traces, train-only
traces, and records whose ``t`` is null (unstepped training metrics).

The three traces below are also inputs of the oracle comparison in
test_report.py."""

import pytest

from repro.telemetry import (
    aggregate_trace,
    load_trace,
    render_report,
    training_curves,
)
from repro.telemetry.report import (
    lifecycle_table,
    queue_table,
    utilization_table,
)


def _metric(name, value, step=None):
    return {"kind": "metric", "t": None, "name": name,
            "value": value, "step": step}


#: A trace with training metrics only — what a model-only experiment
#: (no simulator attached to the tracer) produces.
TRAIN_ONLY = [
    _metric("model/epoch_loss", 4.0, 0),
    _metric("model/epoch_loss", 2.0, 1),
    _metric("train/eval_reward", -12.5, 0),
    _metric("ddpg/sigma", 0.2),  # unstepped: excluded from curves
]

#: Event records only — e.g. a run that never completed a window.
WINDOWLESS = [
    {"kind": "event.arrival", "t": 0.5, "workflow": "Type1",
     "request_id": 1},
    {"kind": "event.publish", "t": 0.5, "queue": "Ingest", "depth": 1},
    {"kind": "event.consumer_start", "t": 1.0, "service": "Ingest",
     "consumer_id": 7, "startup_delay": 8.0},
    {"kind": "event.consumer_ready", "t": 9.0, "service": "Ingest",
     "consumer_id": 7, "startup_latency": 8.0},
]

#: ``t: null`` is legal (training metrics before a clock is bound).
MIXED_TIMESTAMPS = [
    _metric("model/epoch_loss", 3.0, 0),
    {"kind": "event.arrival", "t": 2.0, "workflow": "Type1",
     "request_id": 1},
]


def snapshot_of(records):
    return aggregate_trace(records).snapshot()


class TestEmptyTrace:
    def test_summaries_are_empty(self):
        snapshot = snapshot_of([])
        assert utilization_table(snapshot) == {}
        assert queue_table(snapshot) == {}
        assert lifecycle_table(snapshot) == {}
        assert training_curves([]) == {}

    def test_render_report_mentions_no_windows(self):
        assert "0 records, no window spans" in render_report(snapshot_of([]))

    def test_load_trace_empty_file(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("")
        assert load_trace(tmp_path) == []

    def test_load_trace_skips_blank_lines(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text(
            '\n{"kind": "metric", "t": null, "name": "x", '
            '"value": 1.0, "step": null}\n\n'
        )
        records = load_trace(tmp_path, validate=True)
        assert len(records) == 1

    def test_load_trace_rejects_bad_json(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text("{not json}\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_trace(tmp_path)


class TestWindowlessTrace:
    def test_events_match_registered_schemas(self):
        from repro.telemetry.records import validate_record

        for record in WINDOWLESS:
            validate_record(record)

    def test_utilization_empty_without_windows(self):
        assert utilization_table(snapshot_of(WINDOWLESS)) == {}

    def test_queue_and_consumer_summaries_still_work(self):
        snapshot = snapshot_of(WINDOWLESS)
        queues = queue_table(snapshot)
        assert queues["Ingest"]["publishes"] == 1
        assert queues["Ingest"]["mean_depth"] == 0.0
        assert queues["Ingest"]["peak_depth"] == 0.0

        consumers = lifecycle_table(snapshot)
        assert consumers["Ingest"]["started"] == 1
        assert consumers["Ingest"]["ready"] == 1
        assert consumers["Ingest"]["mean_startup_latency"] == 8.0

    def test_render_report_does_not_crash(self):
        text = render_report(
            snapshot_of(WINDOWLESS), WINDOWLESS, title="windowless"
        )
        assert "windowless" in text
        assert f"{len(WINDOWLESS)} records, no window spans" in text


class TestTrainOnlyTrace:
    def test_curves_index_by_step_and_skip_unstepped(self):
        curves = training_curves(TRAIN_ONLY)
        assert curves["model/epoch_loss"] == {0: 4.0, 1: 2.0}
        assert curves["train/eval_reward"] == {0: -12.5}
        assert "ddpg/sigma" not in curves

    def test_render_report_shows_curves_only(self):
        text = render_report(snapshot_of(TRAIN_ONLY), TRAIN_ONLY)
        assert "Training curves" in text
        assert "model/epoch_loss" in text
        assert "utilization" not in text.lower()

    def test_duplicate_step_last_write_wins(self):
        records = TRAIN_ONLY + [_metric("model/epoch_loss", 1.5, 1)]
        assert training_curves(records)["model/epoch_loss"][1] == 1.5


class TestNullTimestamps:
    def test_render_report_with_mixed_timestamps(self):
        text = render_report(snapshot_of(MIXED_TIMESTAMPS), MIXED_TIMESTAMPS)
        assert "2 records, no window spans" in text
        assert "model/epoch_loss" in text

    def test_metrics_aggregation_accepts_null_t(self):
        families = snapshot_of(MIXED_TIMESTAMPS[:1])["families"]
        assert families["repro_training_metric"]["series"][0]["value"] == 3.0
