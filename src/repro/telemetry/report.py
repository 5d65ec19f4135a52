"""How a finished run is read back: the tables ``repro report`` prints.

A trace is folded once, by :func:`~repro.telemetry.metrics.aggregate_trace`;
the snapshot document that fold produces (the bytes of ``metrics.json``)
already holds every number of the three per-service tables, so they are
read off it rather than re-derived record by record:

- **per-microservice utilization** — mean WIP, allocation, busy
  consumers, busy/allocated utilization over all windows,
- **queue depth** — mean/peak ready depth, publishes, redeliveries,
- **container lifecycle** — starts, readies, stops, mean start-up latency.

The one table the snapshot does not hold is the per-step **training
curves** (it keeps the last value and an EWMA per metric, not the
series), so :func:`training_curves` folds those from the records.
``tests/telemetry/reference_report.py`` keeps the record-by-record folds
as the oracle the tables are pinned against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "utilization_table",
    "queue_table",
    "lifecycle_table",
    "training_curves",
    "render_report",
]


def _series(snapshot: Mapping, family: str) -> List[Dict]:
    return snapshot.get("families", {}).get(family, {}).get("series", [])


def _by_label(snapshot: Mapping, family: str, label: str) -> Dict[str, Dict]:
    """One single-label family's series, keyed by the label's value."""
    return {s["labels"][label]: s for s in _series(snapshot, family)}


def _total(snapshot: Mapping, family: str) -> int:
    """``value`` summed over a family's series, to the nearest integer."""
    return round(sum(s["value"] for s in _series(snapshot, family)))


def _stat(series: Mapping[str, Dict], name: str, field: str) -> float:
    """``field`` of the series labeled ``name``; 0.0 where none was observed."""
    return series[name][field] if name in series else 0.0


def utilization_table(snapshot: Mapping) -> Dict[str, Dict[str, float]]:
    """Per-microservice means over all windows.

    Returns ``{service: {mean_wip, mean_allocation, mean_busy,
    utilization}}`` where utilization is busy consumers divided by
    allocated consumers, averaged over windows with a non-zero
    allocation (the rule of ``MetricsAggregator._fold_windows``).
    """
    wip = _by_label(snapshot, "repro_wip", "service")
    allocation = _by_label(snapshot, "repro_allocation", "service")
    busy = _by_label(snapshot, "repro_busy_consumers", "service")
    utilization = _by_label(snapshot, "repro_utilization", "service")
    return {
        name: {
            "mean_wip": wip[name]["mean"],
            "mean_allocation": _stat(allocation, name, "mean"),
            "mean_busy": _stat(busy, name, "mean"),
            "utilization": _stat(utilization, name, "mean"),
        }
        for name in wip
    }


def queue_table(snapshot: Mapping) -> Dict[str, Dict[str, float]]:
    """Per-queue window-boundary depth and publish/redeliver totals."""
    ready = _by_label(snapshot, "repro_queue_ready", "service")
    publishes = _by_label(snapshot, "repro_publishes_total", "queue")
    redeliveries = _by_label(snapshot, "repro_redeliveries_total", "queue")
    return {
        name: {
            "mean_depth": _stat(ready, name, "mean"),
            "peak_depth": _stat(ready, name, "max"),
            "publishes": _stat(publishes, name, "value"),
            "redeliveries": _stat(redeliveries, name, "value"),
        }
        for name in sorted({*ready, *publishes, *redeliveries})
    }


def lifecycle_table(snapshot: Mapping) -> Dict[str, Dict[str, float]]:
    """Per-microservice container-lifecycle statistics.

    ``mean_startup_latency`` is the observed creation-to-first-consume
    delay the paper reports as 5–10 s on Kubernetes; ``stopped`` sums
    every stop mode (drain / kill / cancel-starting / idle / drained).
    """
    startup = _by_label(snapshot, "repro_startup_latency_seconds", "service")
    table: Dict[str, Dict[str, float]] = {}
    for series in _series(snapshot, "repro_consumer_events_total"):
        service = series["labels"]["service"]
        event = series["labels"]["event"]
        if service not in table:
            table[service] = {
                "started": 0.0, "ready": 0.0, "stopped": 0.0,
                "mean_startup_latency": _stat(startup, service, "mean"),
            }
        column = {"start": "started", "ready": "ready"}.get(event, "stopped")
        table[service][column] += series["value"]
    return table


def training_curves(records: Sequence[Dict]) -> Dict[str, Dict[int, float]]:
    """Metric series keyed by name then step.

    Only metrics with an integer ``step`` participate (per-iteration and
    per-epoch scalars); unstepped metrics are skipped.  Later emissions
    for the same (name, step) overwrite earlier ones.
    """
    curves: Dict[str, Dict[int, float]] = {}
    for record in records:
        if record.get("kind") != "metric" or record.get("step") is None:
            continue
        curves.setdefault(record["name"], {})[int(record["step"])] = float(
            record["value"]
        )
    return curves


def render_report(
    snapshot: Mapping,
    records: Sequence[Dict] = (),
    title: Optional[str] = None,
) -> str:
    """Render the textual report (what ``repro report`` prints).

    ``snapshot`` is the document of ``aggregate_trace(records).snapshot()``
    (or a live ``MetricsSink.snapshot()``); ``records`` supply the
    training curves only.
    """
    from repro.eval.reporting import format_table

    sections: List[str] = []
    if title:
        sections.append(title)

    total = _total(snapshot, "repro_records_total")
    windows = _total(snapshot, "repro_windows_total")
    sections.append(
        f"{total} records, {windows} windows, "
        f"sim time {_total(snapshot, 'repro_sim_time_seconds')}s" if windows
        else f"{total} records, no window spans"
    )

    util = utilization_table(snapshot)
    if util:
        sections.append(format_table(
            ["microservice", "mean WIP", "mean alloc", "mean busy", "util"],
            [
                [name, s["mean_wip"], s["mean_allocation"],
                 s["mean_busy"], s["utilization"]]
                for name, s in util.items()
            ],
            title="Per-microservice utilization",
        ))

    queues = queue_table(snapshot)
    if queues:
        sections.append(format_table(
            ["queue", "mean depth", "peak depth", "publishes", "redeliveries"],
            [
                [name, s["mean_depth"], s["peak_depth"],
                 int(s["publishes"]), int(s["redeliveries"])]
                for name, s in queues.items()
            ],
            title="Queue depth",
        ))

    consumers = lifecycle_table(snapshot)
    if consumers:
        sections.append(format_table(
            ["microservice", "started", "ready", "stopped", "mean startup (s)"],
            [
                [name, int(s["started"]), int(s["ready"]),
                 int(s["stopped"]), s["mean_startup_latency"]]
                for name, s in consumers.items()
            ],
            title="Container lifecycle",
        ))

    curves = training_curves(records)
    if curves:
        names = sorted(curves)
        steps = sorted({step for series in curves.values() for step in series})
        rows = [
            [step, *[curves[name].get(step, "-") for name in names]]
            for step in steps
        ]
        sections.append(format_table(
            ["step", *names], rows, title="Training curves",
        ))

    return "\n\n".join(sections)
