"""Tracer and sink behavior, including the disabled fast path."""

import json

import pytest

from repro.sim.events import EventLoop, TypedEventLoop
from repro.telemetry import (
    NULL_TRACER,
    RECORD_SCHEMAS,
    JsonlSink,
    MemorySink,
    NullSink,
    Tracer,
    validate_record,
)

from tests.telemetry.test_records import make_record


class TestDisabledTracer:
    def test_default_tracer_is_disabled(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert isinstance(tracer.sink, NullSink)

    def test_disabled_tracer_never_records(self):
        tracer = Tracer()
        tracer.emit("event.publish", queue="Ingest", depth=1)
        tracer.metric("train/eval_reward", -1.0, step=0)
        tracer.count("refinement/lends")
        assert tracer.records_written == 0
        assert tracer.counters == {}

    def test_bind_clock_is_noop_when_disabled(self):
        """The shared NULL_TRACER must not retain per-run clock state."""
        tracer = Tracer()
        tracer.bind_clock(lambda: 99.0)
        assert tracer.now() is None

    def test_null_tracer_singleton_stays_clean(self):
        NULL_TRACER.bind_clock(lambda: 1.0)
        NULL_TRACER.emit("event.publish", queue="x", depth=1)
        NULL_TRACER.count("x")
        assert NULL_TRACER.now() is None
        assert NULL_TRACER.records_written == 0
        assert NULL_TRACER.counters == {}


class TestEnabledTracer:
    def test_envelope_and_clock(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        assert tracer.enabled
        tracer.emit("event.publish", queue="Ingest", depth=2)
        tracer.bind_clock(lambda: 42.5)
        tracer.emit("event.publish", queue="Ingest", depth=3)
        assert len(sink) == 2
        assert sink.records[0]["t"] is None  # before the clock was bound
        assert sink.records[1] == {
            "kind": "event.publish", "t": 42.5, "queue": "Ingest", "depth": 3,
        }
        for record in sink.records:
            validate_record(record)

    @pytest.mark.parametrize("loop_class", [EventLoop, TypedEventLoop])
    def test_a_bound_loop_is_the_clock(self, loop_class):
        """The system binds its event loop, not a callable: ``t`` is the
        loop's time as a float, and the record written is the dict the
        site built, stamped in place."""
        sink = MemorySink()
        tracer = Tracer(sink, clock=lambda: 7.0)
        loop = loop_class()
        tracer.bind_clock(loop)
        loop.run_until(12)  # an int: the trace still says 12.0
        record = {"kind": "event.publish", "t": None, "queue": "Ingest", "depth": 1}
        tracer.write(record)
        assert sink.records[0] is record
        assert list(record.items()) == [
            ("kind", "event.publish"), ("t", 12.0),
            ("queue", "Ingest"), ("depth", 1),
        ]
        assert type(record["t"]) is float
        assert tracer.now() == record["t"]
        assert tracer.records_written == 1
        later = 3.5
        tracer.bind_clock(lambda: later)  # a callable bound later wins again
        assert tracer.now() == later

    def test_binding_a_loop_leaves_the_null_tracer_clean(self):
        NULL_TRACER.bind_clock(EventLoop())
        NULL_TRACER.write({"kind": "event.publish", "t": None, "queue": "x", "depth": 1})
        assert NULL_TRACER.now() is None
        assert NULL_TRACER.records_written == 0

    def test_metric_record_shape(self):
        sink = MemorySink()
        tracer = Tracer(sink, clock=lambda: 7.0)
        tracer.metric("model/epoch_loss", 0.25, step=3)
        tracer.metric("unstepped", 1.0)
        assert sink.records[0] == {
            "kind": "metric", "t": 7.0, "name": "model/epoch_loss",
            "value": 0.25, "step": 3,
        }
        assert sink.records[1]["step"] is None
        for record in sink.records:
            validate_record(record)

    def test_counters_do_not_write_records(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.count("refinement/lends")
        tracer.count("refinement/lends", 4)
        assert tracer.counters == {"refinement/lends": 5}
        assert len(sink) == 0
        assert tracer.records_written == 0


class TestSinkTruthiness:
    def test_fresh_sinks_are_truthy(self, tmp_path):
        """``Tracer(sink) if sink else None`` must trace: MemorySink has
        ``__len__``, and an empty one used to be falsy."""
        memory = MemorySink()
        assert len(memory) == 0
        assert memory
        assert NullSink()
        with JsonlSink(tmp_path / "trace.jsonl") as jsonl:
            assert jsonl


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "runs" / "trace.jsonl"  # parent dir auto-created
        with JsonlSink(path) as sink:
            tracer = Tracer(sink, clock=lambda: 1.0)
            tracer.emit("event.publish", queue="Ingest", depth=1)
            tracer.emit("event.redeliver", queue="Ingest", depth=2)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert sink.records_written == 2
        first = json.loads(lines[0])
        assert first == {
            "kind": "event.publish", "t": 1.0, "queue": "Ingest", "depth": 1,
        }

    def test_lines_are_the_bytes_json_dumps_wrote(self, tmp_path):
        """The sink holds one encoder; until PR 24 it called
        ``json.dumps(record, separators=(",", ":"))`` per record."""
        records = [make_record(kind) for kind in sorted(RECORD_SCHEMAS)]
        records.append({
            "kind": "metric", "t": None, "name": "caf\u00e9/\u03bb \"q\"",
            "value": float("inf"), "step": None,
        })
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for record in records:
                sink.write(record)
        assert path.read_bytes() == "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        ).encode("utf-8")

    def test_close_is_idempotent_and_blocks_writes(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.write({"kind": "metric", "t": None, "name": "x", "value": 1.0,
                    "step": None})
        sink.close()
        sink.close()
        with pytest.raises(RuntimeError, match="closed"):
            sink.write({"kind": "metric"})
