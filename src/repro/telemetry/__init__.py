"""Telemetry: deterministic tracing and metrics for the reproduction.

The observability layer of docs/OBSERVABILITY.md:

- :mod:`repro.telemetry.tracer` — the :class:`Tracer` every instrumented
  component emits through (simulation-clock timestamps, no-op by default),
- :mod:`repro.telemetry.sinks` — record destinations (null / in-memory /
  JSONL file) and :func:`load_trace`, which reads the file back,
- :mod:`repro.telemetry.records` — the record-kind registry and schemas,
- :mod:`repro.telemetry.manifest` — per-run provenance documents,
- :mod:`repro.telemetry.metrics` — the one fold: streaming aggregation
  into counters, gauges, EWMAs and histograms, live
  (:class:`MetricsSink`) or replayed (:func:`aggregate_trace`), with
  JSON and Prometheus exposition,
- :mod:`repro.telemetry.report` — the tables ``repro report`` prints,
  read off that fold's snapshot,
- :mod:`repro.telemetry.fleet` — deterministic merge of per-cell traces
  from parallel runs (worker-count independent),
- :mod:`repro.telemetry.profile` — the hierarchical phase profiler
  (wall/CPU time per layer boundary, installed around a run by
  ``repro trace``; outside the determinism contract).

Typical use (the tracer is a context manager — the sink is flushed and
closed on exit, including exceptional exit)::

    from repro.telemetry import JsonlSink, MetricsSink, Tracer

    with Tracer(MetricsSink(JsonlSink("runs/demo/trace.jsonl"))) as tracer:
        system = MicroserviceWorkflowSystem(ensemble, config, seed=0,
                                            tracer=tracer)
        ...
"""

from repro.telemetry.manifest import (
    NONDETERMINISTIC_FIELDS,
    RunManifest,
    read_manifest,
    wall_time_now,
    write_manifest,
)
from repro.telemetry.records import (
    ENVELOPE_FIELDS,
    RECORD_SCHEMAS,
    SCHEMA_VERSION,
    validate_record,
)
from repro.telemetry.metrics import (
    MetricsAggregator,
    MetricsRegistry,
    MetricsSink,
    SNAPSHOT_VERSION,
    aggregate_trace,
    snapshot_to_json,
    write_metrics,
)
from repro.telemetry.fleet import (
    FLEET_VERSION,
    FleetMerge,
    discover_cells,
    merge_fleet,
    write_fleet,
)
from repro.telemetry.profile import (
    PROFILE_VERSION,
    PhaseProfiler,
    read_profile,
    render_profile,
    write_profile,
)
from repro.telemetry.report import render_report, training_curves
from repro.telemetry.sinks import (
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    load_trace,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "SCHEMA_VERSION",
    "ENVELOPE_FIELDS",
    "RECORD_SCHEMAS",
    "validate_record",
    "RunManifest",
    "NONDETERMINISTIC_FIELDS",
    "wall_time_now",
    "write_manifest",
    "read_manifest",
    "load_trace",
    "training_curves",
    "render_report",
    "SNAPSHOT_VERSION",
    "MetricsRegistry",
    "MetricsAggregator",
    "MetricsSink",
    "aggregate_trace",
    "snapshot_to_json",
    "write_metrics",
    "PROFILE_VERSION",
    "PhaseProfiler",
    "render_profile",
    "write_profile",
    "read_profile",
    "FLEET_VERSION",
    "FleetMerge",
    "discover_cells",
    "merge_fleet",
    "write_fleet",
]
