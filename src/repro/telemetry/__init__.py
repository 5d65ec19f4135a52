"""Telemetry: deterministic tracing and metrics for the reproduction.

The observability layer of docs/OBSERVABILITY.md:

- :mod:`repro.telemetry.tracer` — the :class:`Tracer` every instrumented
  component emits through (simulation-clock timestamps, no-op by default),
- :mod:`repro.telemetry.sinks` — record destinations (null / in-memory /
  JSONL file),
- :mod:`repro.telemetry.records` — the record-kind registry and schemas,
- :mod:`repro.telemetry.manifest` — per-run provenance documents,
- :mod:`repro.telemetry.report` — trace file → summary tables (the
  ``repro report`` CLI),
- :mod:`repro.telemetry.metrics` — streaming aggregation into counters,
  gauges, EWMAs and histograms, with JSON and Prometheus exposition
  (the ``repro metrics`` CLI),
- :mod:`repro.telemetry.slo` — declarative SLO conformance: objectives
  from TOML/JSON evaluated against metrics snapshots (``repro slo``),
- :mod:`repro.telemetry.critical` — trace-driven critical-path latency
  attribution with an exact-sum invariant (``repro critical``),
- :mod:`repro.telemetry.fleet` — deterministic merge of per-cell traces
  from parallel runs (worker-count independent),
- :mod:`repro.telemetry.server` — stdlib Prometheus exposition endpoint
  (``repro metrics --serve``),
- :mod:`repro.telemetry.profile` — the hierarchical phase profiler
  (wall/CPU time per layer boundary, installed around a run by
  ``repro profile run``; outside the determinism contract).

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
    aggregate_run,
    aggregate_trace,
    render_metrics,
    snapshot_to_json,
    write_metrics,
)
from repro.telemetry.critical import (
    CRITICAL_VERSION,
    CriticalPathReport,
    RequestAttribution,
    analyze_run,
    analyze_trace,
    critical_report_json,
    render_critical,
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
from repro.telemetry.report import (
    consumer_summary,
    load_trace,
    queue_summary,
    render_report,
    report_json,
    training_curves,
    utilization_summary,
)
from repro.telemetry.server import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    serve_metrics,
)
from repro.telemetry.sinks import JsonlSink, MemorySink, NullSink, Sink
from repro.telemetry.slo import (
    SLO_REPORT_VERSION,
    SloResult,
    SloSpec,
    SloVerdict,
    evaluate_slos,
    load_slo_specs,
    render_slo_result,
    slo_report_json,
    write_slo_report,
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
    "utilization_summary",
    "queue_summary",
    "consumer_summary",
    "training_curves",
    "report_json",
    "render_report",
    "SNAPSHOT_VERSION",
    "MetricsRegistry",
    "MetricsAggregator",
    "MetricsSink",
    "aggregate_trace",
    "aggregate_run",
    "snapshot_to_json",
    "render_metrics",
    "write_metrics",
    "PROFILE_VERSION",
    "PhaseProfiler",
    "render_profile",
    "write_profile",
    "read_profile",
    "SLO_REPORT_VERSION",
    "SloSpec",
    "SloVerdict",
    "SloResult",
    "load_slo_specs",
    "evaluate_slos",
    "slo_report_json",
    "write_slo_report",
    "render_slo_result",
    "CRITICAL_VERSION",
    "CriticalPathReport",
    "RequestAttribution",
    "analyze_trace",
    "analyze_run",
    "critical_report_json",
    "render_critical",
    "FLEET_VERSION",
    "FleetMerge",
    "discover_cells",
    "merge_fleet",
    "write_fleet",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricsServer",
    "serve_metrics",
]
