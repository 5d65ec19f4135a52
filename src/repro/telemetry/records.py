"""Trace record kinds and schemas.

Every record a :class:`~repro.telemetry.tracer.Tracer` emits is a flat
JSON-serialisable dict with a two-field envelope:

- ``kind`` — one of the registered kinds below,
- ``t`` — the *simulation-clock* timestamp (seconds since the run's
  event-loop epoch), or ``None`` for records emitted before a clock is
  bound.  Wall-clock time never appears in trace records (reprolint D102);
  it lives only in the run manifest, where determinism tests explicitly
  ignore it.

The schema registry is the contract between the emitting instrumentation
(``repro.sim``, ``repro.core``, ``repro.rl``) and the consuming side
(``repro.telemetry.metrics``, the ``repro report`` CLI): a record must
carry exactly the envelope plus the registered payload fields.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = [
    "SCHEMA_VERSION",
    "ENVELOPE_FIELDS",
    "RECORD_SCHEMAS",
    "validate_record",
]

#: Bumped whenever a record schema changes shape; written to the manifest
#: so downstream tooling can refuse traces it does not understand.
#: v2: added ``event.task_complete`` (per-task service time).
#: v3: added ``event.task_span`` (per-task causal span: queue wait,
#: retries, wasted work).
#: v4: added ``span.collect`` (one merged distributed-collection episode).
SCHEMA_VERSION = 4

#: Fields present on every record regardless of kind.
ENVELOPE_FIELDS: FrozenSet[str] = frozenset({"kind", "t"})

#: kind -> required payload fields (exactly these, plus the envelope).
RECORD_SCHEMAS: Dict[str, FrozenSet[str]] = {
    # One control window (the paper's 30 s step): per-microservice state
    # at the window boundary.  ``wip``/``allocation``/``busy``/``starting``
    # /``queue_ready`` are {microservice_name: int} maps.
    "span.window": frozenset({
        "index", "start", "end", "reward", "wip", "allocation", "busy",
        "starting", "queue_ready", "arrivals", "completions",
    }),
    # One real-environment collection episode merged by the distributed
    # actor/learner engine (repro.rl.distributed), emitted in episode
    # order at merge time.  ``lane`` is the logical-interleave lane,
    # ``sim_time`` the episode replica's own simulation clock at its last
    # window — worker identity and wall clock never appear, so traces are
    # identical for any worker count.
    "span.collect": frozenset({
        "lane", "episode", "steps", "reward", "sim_time",
    }),
    # A workflow request entering the system.
    "event.arrival": frozenset({"workflow", "request_id"}),
    # A workflow request leaving the system (all tasks done).
    "event.workflow_complete": frozenset({
        "workflow", "request_id", "response_time",
    }),
    # A task request published to a microservice queue.
    "event.publish": frozenset({"queue", "depth"}),
    # A nacked task request requeued at the front (kill / crash path).
    "event.redeliver": frozenset({"queue", "depth"}),
    # Container lifecycle: creation (start-up latency begins), readiness
    # (first consume possible), removal (mode: drain / kill /
    # cancel-starting / idle / drained).
    "event.consumer_start": frozenset({
        "service", "consumer_id", "node", "startup_delay",
    }),
    "event.consumer_ready": frozenset({
        "service", "consumer_id", "startup_latency",
    }),
    "event.consumer_stop": frozenset({"service", "consumer_id", "mode"}),
    # A task finishing on a consumer; ``service_time`` is the processing
    # time of this attempt (wasted work from killed attempts excluded).
    # Feeds the per-service service-time histograms of the metrics engine.
    "event.task_complete": frozenset({"service", "service_time"}),
    # The full causal span of one task of one workflow request, emitted at
    # completion (record ``t``): ``published`` is when the request entered
    # the queue, ``started`` when the final (successful) attempt began
    # processing, ``deliveries`` the delivery attempts, ``wasted`` the
    # processing time lost to interrupted attempts.  ``request_id`` is the
    # run-local workflow ordinal of ``event.arrival``.  Feeds the
    # queue-wait / retry / wasted-work families of the metrics engine.
    "event.task_span": frozenset({
        "service", "request_id", "published", "started", "deliveries",
        "wasted",
    }),
    # Cluster slot accounting (Kubernetes scheduler analog).
    "event.placement": frozenset({"node", "used"}),
    "event.release": frozenset({"node", "used"}),
    # Injected faults: consumer_crash / tds_outage / tds_recover.
    "event.fault": frozenset({"fault", "target"}),
    # A named scalar (training-loop instrumentation).  ``step`` is the
    # producer's own counter (iteration, epoch, update index) or None.
    "metric": frozenset({"name", "value", "step"}),
}


def validate_record(record: Dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches its registered schema."""
    if not isinstance(record, dict):
        raise ValueError(f"record must be a dict, got {type(record).__name__}")
    kind = record.get("kind")
    if kind not in RECORD_SCHEMAS:
        raise ValueError(f"unknown record kind {kind!r}")
    missing = ENVELOPE_FIELDS - record.keys()
    if missing:
        raise ValueError(f"{kind} record missing envelope fields {sorted(missing)}")
    expected = RECORD_SCHEMAS[kind]
    payload = record.keys() - ENVELOPE_FIELDS
    if payload != expected:
        extra = sorted(payload - expected)
        absent = sorted(expected - payload)
        raise ValueError(
            f"{kind} record payload mismatch: missing={absent}, unexpected={extra}"
        )
