"""Record-schema registry tests: the emitter/consumer contract."""

import pytest

from repro.telemetry import (
    ENVELOPE_FIELDS,
    RECORD_SCHEMAS,
    SCHEMA_VERSION,
    validate_record,
)

#: One well-formed example per registered kind.
EXAMPLES = {
    "span.window": {
        "index": 0, "start": 0.0, "end": 30.0, "reward": -12.5,
        "wip": {"Ingest": 3.0}, "allocation": {"Ingest": 4},
        "busy": {"Ingest": 2}, "starting": {"Ingest": 1},
        "queue_ready": {"Ingest": 1}, "arrivals": 5, "completions": 2,
    },
    "span.collect": {
        "lane": 1, "episode": 5, "steps": 25, "reward": -140.5,
        "sim_time": 750.0,
    },
    "event.arrival": {"workflow": "Type3", "request_id": 17},
    "event.workflow_complete": {
        "workflow": "Type3", "request_id": 17, "response_time": 42.0,
    },
    "event.publish": {"queue": "Ingest", "depth": 3},
    "event.redeliver": {"queue": "Ingest", "depth": 4},
    "event.consumer_start": {
        "service": "Ingest", "consumer_id": 2, "startup_delay": 7.5,
    },
    "event.consumer_ready": {
        "service": "Ingest", "consumer_id": 2, "startup_latency": 7.5,
    },
    "event.consumer_stop": {
        "service": "Ingest", "consumer_id": 2, "mode": "drain",
    },
    "event.task_span": {
        "service": "Ingest", "request_id": 17, "published": 10.0,
        "started": 12.5, "deliveries": 1, "wasted": 0.0,
    },
    "event.fault": {"fault": "consumer_crash", "target": "Ingest"},
    "metric": {"name": "train/eval_reward", "value": -3.5, "step": 0},
}


def make_record(kind):
    return {"kind": kind, "t": 30.0, **EXAMPLES[kind]}


class TestRegistry:
    def test_schema_version_is_positive_int(self):
        assert isinstance(SCHEMA_VERSION, int) and SCHEMA_VERSION >= 1

    def test_v5_dropped_task_complete(self):
        """Its service time is the ``t - started`` of the task's span."""
        assert SCHEMA_VERSION >= 5
        assert "event.task_complete" not in RECORD_SCHEMAS
        with pytest.raises(ValueError, match="unknown record kind"):
            validate_record({
                "kind": "event.task_complete", "t": 30.0,
                "service": "Ingest", "service_time": 9.5,
            })

    def test_v6_dropped_placement(self):
        """Cluster placement is not modelled: no slot records, and a
        container start names no node."""
        assert SCHEMA_VERSION == 6
        for kind, payload in (
            ("event.placement", {"node": 1, "used": 3}),
            ("event.release", {"node": 1, "used": 2}),
        ):
            assert kind not in RECORD_SCHEMAS
            with pytest.raises(ValueError, match="unknown record kind"):
                validate_record({"kind": kind, "t": 30.0, **payload})
        start = make_record("event.consumer_start")
        start["node"] = 1
        with pytest.raises(ValueError, match="unexpected=\\['node'\\]"):
            validate_record(start)

    def test_envelope_fields(self):
        assert ENVELOPE_FIELDS == {"kind", "t"}

    def test_examples_cover_every_kind(self):
        assert set(EXAMPLES) == set(RECORD_SCHEMAS)

    @pytest.mark.parametrize("kind", sorted(RECORD_SCHEMAS))
    def test_examples_validate(self, kind):
        validate_record(make_record(kind))

    def test_payload_fields_never_shadow_envelope(self):
        for kind, fields in RECORD_SCHEMAS.items():
            assert not (set(fields) & ENVELOPE_FIELDS), kind


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown record kind"):
            validate_record({"kind": "event.nope", "t": 0.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            validate_record({"t": 0.0, "queue": "Ingest", "depth": 1})

    @pytest.mark.parametrize("kind", sorted(RECORD_SCHEMAS))
    def test_missing_payload_field_rejected(self, kind):
        record = make_record(kind)
        record.pop(sorted(EXAMPLES[kind])[0])
        with pytest.raises(ValueError):
            validate_record(record)

    @pytest.mark.parametrize("kind", sorted(RECORD_SCHEMAS))
    def test_unexpected_payload_field_rejected(self, kind):
        record = make_record(kind)
        record["surprise"] = 1
        with pytest.raises(ValueError):
            validate_record(record)

    def test_none_timestamp_allowed(self):
        """t is None before a clock is bound — legal in the envelope."""
        record = make_record("metric")
        record["t"] = None
        validate_record(record)
