"""The record-by-record report folds, kept as the oracle.

Until PR 22 ``repro.telemetry.report`` derived its three per-service
tables with these functions, one pass over the records each.  The
metrics aggregator's gauges, counters and histograms hold the same
numbers bit for bit (same left-to-right float sums, same "windows with a
non-zero allocation" rule), so the tables are now read off its snapshot
and the folds live here, verbatim apart from ``_mean`` spelling out the
summation order, as the reference
``tests/telemetry/test_report.py`` compares every cell against.
"""

from typing import Dict, List, Sequence


def _windows(records: Sequence[Dict]) -> List[Dict]:
    return [r for r in records if r.get("kind") == "span.window"]


def _mean(values: Sequence[float]) -> float:
    # Left to right, as ``sum()`` added until Python 3.12 made it
    # compensated; the aggregator's gauges and histograms add this way.
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def utilization_summary(records: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-microservice means over all windows.

    Returns ``{service: {mean_wip, mean_allocation, mean_busy,
    utilization}}`` where utilization is busy consumers divided by
    allocated consumers, averaged over windows with a non-zero
    allocation.
    """
    windows = _windows(records)
    services: List[str] = []
    for window in windows:
        for name in window["wip"]:
            if name not in services:
                services.append(name)
    summary: Dict[str, Dict[str, float]] = {}
    for name in services:
        wip = [float(w["wip"].get(name, 0)) for w in windows]
        alloc = [float(w["allocation"].get(name, 0)) for w in windows]
        busy = [float(w["busy"].get(name, 0)) for w in windows]
        ratios = [b / a for b, a in zip(busy, alloc) if a > 0]
        summary[name] = {
            "mean_wip": _mean(wip),
            "mean_allocation": _mean(alloc),
            "mean_busy": _mean(busy),
            "utilization": _mean(ratios),
        }
    return summary


def queue_summary(records: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-queue depth statistics and publish/redeliver totals."""
    windows = _windows(records)
    summary: Dict[str, Dict[str, float]] = {}
    for window in windows:
        for name, depth in window["queue_ready"].items():
            stats = summary.setdefault(
                name,
                {"mean_depth": 0.0, "peak_depth": 0.0,
                 "publishes": 0, "redeliveries": 0, "_depths": []},
            )
            stats["_depths"].append(float(depth))
    for record in records:
        kind = record.get("kind")
        if kind == "event.publish":
            stats = summary.setdefault(
                record["queue"],
                {"mean_depth": 0.0, "peak_depth": 0.0,
                 "publishes": 0, "redeliveries": 0, "_depths": []},
            )
            stats["publishes"] += 1
        elif kind == "event.redeliver":
            stats = summary.setdefault(
                record["queue"],
                {"mean_depth": 0.0, "peak_depth": 0.0,
                 "publishes": 0, "redeliveries": 0, "_depths": []},
            )
            stats["redeliveries"] += 1
    for stats in summary.values():
        depths = stats.pop("_depths")
        stats["mean_depth"] = _mean(depths)
        stats["peak_depth"] = max(depths) if depths else 0.0
    return summary


def consumer_summary(records: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per-microservice container-lifecycle statistics.

    ``mean_startup_latency`` is measured over ``event.consumer_ready``
    records — the observed creation-to-first-consume delay the paper
    reports as 5–10 s on Kubernetes.
    """
    summary: Dict[str, Dict[str, float]] = {}
    latencies: Dict[str, List[float]] = {}
    for record in records:
        kind = record.get("kind")
        if kind not in (
            "event.consumer_start", "event.consumer_ready",
            "event.consumer_stop",
        ):
            continue
        name = record["service"]
        stats = summary.setdefault(
            name, {"started": 0, "ready": 0, "stopped": 0,
                   "mean_startup_latency": 0.0},
        )
        if kind == "event.consumer_start":
            stats["started"] += 1
        elif kind == "event.consumer_ready":
            stats["ready"] += 1
            latencies.setdefault(name, []).append(
                float(record["startup_latency"])
            )
        else:
            stats["stopped"] += 1
    for name, stats in summary.items():
        stats["mean_startup_latency"] = _mean(latencies.get(name, []))
    return summary
