"""Report tests: the snapshot-derived tables against hand-computed values
on synthetic records, and against the record-by-record folds they
replaced (:mod:`tests.telemetry.reference_report`) on every kind of
trace the repo pins."""

import pytest

from repro.telemetry import load_trace, render_report, training_curves
from repro.telemetry.report import (
    lifecycle_table,
    queue_table,
    utilization_table,
)

from tests.telemetry import reference_report
from tests.telemetry.test_metrics_golden_pin import evaluate_cell, fault_cell
from tests.telemetry.test_report_edges import (
    MIXED_TIMESTAMPS,
    TRAIN_ONLY,
    WINDOWLESS,
    snapshot_of,
)


def window(index, **overrides):
    record = {
        "kind": "span.window", "t": 30.0 * (index + 1),
        "index": index, "start": 30.0 * index, "end": 30.0 * (index + 1),
        "reward": -10.0,
        "wip": {"Ingest": 4.0, "Analyze": 2.0},
        "allocation": {"Ingest": 4, "Analyze": 2},
        "busy": {"Ingest": 2, "Analyze": 0},
        "starting": {"Ingest": 0, "Analyze": 0},
        "queue_ready": {"Ingest": 2, "Analyze": 2},
        "arrivals": 3, "completions": 1,
    }
    record.update(overrides)
    return record


RECORDS = [
    window(0),
    window(
        1,
        wip={"Ingest": 8.0, "Analyze": 2.0},
        busy={"Ingest": 4, "Analyze": 2},
        queue_ready={"Ingest": 6, "Analyze": 0},
    ),
    {"kind": "event.publish", "t": 1.0, "queue": "Ingest", "depth": 1},
    {"kind": "event.publish", "t": 2.0, "queue": "Ingest", "depth": 2},
    {"kind": "event.redeliver", "t": 3.0, "queue": "Ingest", "depth": 3},
    {"kind": "event.consumer_start", "t": 0.0, "service": "Ingest",
     "consumer_id": 0, "startup_delay": 6.0},
    {"kind": "event.consumer_ready", "t": 6.0, "service": "Ingest",
     "consumer_id": 0, "startup_latency": 6.0},
    {"kind": "event.consumer_ready", "t": 10.0, "service": "Ingest",
     "consumer_id": 1, "startup_latency": 10.0},
    {"kind": "event.consumer_stop", "t": 40.0, "service": "Ingest",
     "consumer_id": 0, "mode": "drain"},
    {"kind": "metric", "t": 60.0, "name": "train/eval_reward",
     "value": -5.0, "step": 0},
    {"kind": "metric", "t": 90.0, "name": "train/eval_reward",
     "value": -2.0, "step": 1},
    {"kind": "metric", "t": 90.0, "name": "ddpg/critic_loss",
     "value": 0.5, "step": 50},
    {"kind": "metric", "t": 90.0, "name": "unstepped", "value": 1.0,
     "step": None},
]


class TestSummaries:
    def test_utilization_summary(self):
        summary = utilization_table(snapshot_of(RECORDS))
        assert set(summary) == {"Ingest", "Analyze"}
        ingest = summary["Ingest"]
        assert ingest["mean_wip"] == pytest.approx(6.0)
        assert ingest["mean_allocation"] == pytest.approx(4.0)
        assert ingest["mean_busy"] == pytest.approx(3.0)
        assert ingest["utilization"] == pytest.approx((0.5 + 1.0) / 2)
        # Analyze had zero busy in window 0 but non-zero allocation: both
        # windows count toward the utilization mean.
        assert summary["Analyze"]["utilization"] == pytest.approx(0.5)

    def test_queue_summary(self):
        summary = queue_table(snapshot_of(RECORDS))
        ingest = summary["Ingest"]
        assert ingest["publishes"] == 2
        assert ingest["redeliveries"] == 1
        assert ingest["mean_depth"] == pytest.approx(4.0)  # depths 2, 6
        assert ingest["peak_depth"] == pytest.approx(6.0)
        assert summary["Analyze"]["publishes"] == 0

    def test_consumer_summary(self):
        summary = lifecycle_table(snapshot_of(RECORDS))
        ingest = summary["Ingest"]
        assert ingest["started"] == 1
        assert ingest["ready"] == 2
        assert ingest["stopped"] == 1
        assert ingest["mean_startup_latency"] == pytest.approx(8.0)

    def test_training_curves_skip_unstepped(self):
        curves = training_curves(RECORDS)
        assert curves["train/eval_reward"] == {0: -5.0, 1: -2.0}
        assert curves["ddpg/critic_loss"] == {50: 0.5}
        assert "unstepped" not in curves

    def test_empty_records(self):
        snapshot = snapshot_of([])
        assert utilization_table(snapshot) == {}
        assert queue_table(snapshot) == {}
        assert lifecycle_table(snapshot) == {}
        assert training_curves([]) == {}


#: Every trace shape the repo pins: the three golden-pin cells (full
#: simulator runs, the last with crashes, redeliveries and kill-path
#: stops), the hand-written records above, and the degenerate traces of
#: test_report_edges.py.
ORACLE_INPUTS = {
    "golden-msd": lambda: evaluate_cell("msd", 11).downstream.records,
    "golden-ligo": lambda: evaluate_cell("ligo", 12).downstream.records,
    "golden-faults": lambda: fault_cell().downstream.records,
    "synthetic": lambda: RECORDS,
    "windowless": lambda: WINDOWLESS,
    "train-only": lambda: TRAIN_ONLY,
    "null-timestamps": lambda: MIXED_TIMESTAMPS,
    "empty": lambda: [],
}


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_tables_equal_the_record_folds(name):
    """One fold: every cell the report reads off the aggregator's
    snapshot is the float the record-by-record fold computed — ``==``,
    not ``approx`` (rows compare as dicts: the snapshot sorts them)."""
    records = ORACLE_INPUTS[name]()
    snapshot = snapshot_of(records)
    assert utilization_table(snapshot) == (
        reference_report.utilization_summary(records)
    )
    assert queue_table(snapshot) == reference_report.queue_summary(records)
    assert lifecycle_table(snapshot) == (
        reference_report.consumer_summary(records)
    )


class TestRenderReport:
    def test_sections_present(self):
        text = render_report(snapshot_of(RECORDS), RECORDS, title="synthetic")
        assert "synthetic" in text
        assert f"{len(RECORDS)} records, 2 windows, sim time 90s" in text
        assert "Per-microservice utilization" in text
        assert "Queue depth" in text
        assert "Container lifecycle" in text
        assert "Training curves" in text

    def test_metrics_only_trace(self):
        records = [r for r in RECORDS if r["kind"] == "metric"]
        text = render_report(snapshot_of(records), records)
        assert "no window spans" in text
        assert "Training curves" in text
        assert "Queue depth" not in text


class TestLoadTrace:
    def write(self, path, records):
        import json

        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )

    def test_file_and_directory_forms(self, tmp_path):
        self.write(tmp_path / "trace.jsonl", RECORDS)
        from_dir = load_trace(tmp_path, validate=True)
        from_file = load_trace(tmp_path / "trace.jsonl", validate=True)
        assert from_dir == from_file == RECORDS

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"event.publish","t":1.0,'
                        '"queue":"Ingest","depth":1}\n\n')
        assert len(load_trace(path)) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"metric"}\nnot json\n')
        with pytest.raises(ValueError, match=":2: invalid JSON"):
            load_trace(path)

    def test_validate_flag_rejects_bad_records(self, tmp_path):
        self.write(tmp_path / "trace.jsonl", [{"kind": "event.nope", "t": 0}])
        assert len(load_trace(tmp_path)) == 1  # lenient by default
        with pytest.raises(ValueError, match=":1: unknown record kind"):
            load_trace(tmp_path, validate=True)
