"""Streaming metrics aggregation: from trace records to live histograms.

The metrics engine turns the record stream a :class:`~repro.telemetry.tracer.Tracer`
emits into *aggregates* — labeled counters, gauges, EWMAs, and
fixed-bucket histograms with exact quantile readout (P50/P95/P99 of
response time, queue depth, startup latency, per-service WIP and
utilization, training-loss EWMAs).  It is fed two ways:

- **live** — a :class:`MetricsSink` composes with any other sink
  (``Tracer(MetricsSink(JsonlSink(...)))``) and aggregates every record
  as it is written,
- **offline** — :func:`aggregate_trace` replays an existing
  ``trace.jsonl`` through the *same* aggregator code path.

Because both paths consume the identical record dicts, the live and
post-hoc numbers are equal **by construction** — the determinism tests
pin byte-identical JSON snapshots.  Nothing in this module reads a
clock or an RNG: every aggregate is a pure function of the record
stream, so same-seed runs produce identical snapshots.

Snapshots export two ways: a versioned JSON document
(:meth:`MetricsRegistry.snapshot` + :func:`snapshot_to_json`) and the
Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry.sinks import Sink

__all__ = [
    "SNAPSHOT_VERSION",
    "Counter",
    "Gauge",
    "Ewma",
    "Histogram",
    "MetricsRegistry",
    "MetricsAggregator",
    "MetricsSink",
    "aggregate_trace",
    "snapshot_to_json",
    "write_metrics",
    "RESPONSE_TIME_BUCKETS",
    "STARTUP_LATENCY_BUCKETS",
    "QUEUE_DEPTH_BUCKETS",
    "SERVICE_TIME_BUCKETS",
    "QUEUE_WAIT_BUCKETS",
    "METRICS_FILENAME",
    "EXPOSITION_FILENAME",
]

#: Bumped whenever the JSON snapshot document changes shape; consumers
#: (CI trend tooling, dashboards) key on it the way trace readers key on
#: the record SCHEMA_VERSION.
SNAPSHOT_VERSION = 1

METRICS_FILENAME = "metrics.json"
EXPOSITION_FILENAME = "metrics.prom"

#: Default bucket upper bounds (seconds) for workflow response times —
#: spans background-load completions (tens of seconds) through burst
#: backlogs (tens of minutes).  +Inf is implicit.
RESPONSE_TIME_BUCKETS: Tuple[float, ...] = (
    15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 900.0, 1800.0, 3600.0,
)

#: Container start-up latency buckets (paper: uniform 5-10 s).
STARTUP_LATENCY_BUCKETS: Tuple[float, ...] = (
    2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 30.0,
)

#: Ready-queue depth at publish time.
QUEUE_DEPTH_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Per-task service time buckets (MSD/LIGO means are seconds to ~1 min).
SERVICE_TIME_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0,
)

#: Queue-wait (publish to successful-attempt start) buckets — near zero
#: with idle consumers, minutes under burst backlogs.
QUEUE_WAIT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0,
)

LabelValue = Tuple[str, ...]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount

    def state(self) -> Dict:
        return {"value": self.value}


class Gauge:
    """Last-observed value plus running extremes and mean."""

    __slots__ = ("value", "min", "max", "total", "observations")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.total = 0.0
        self.observations = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.total += value
        self.observations += 1

    @property
    def mean(self) -> float:
        return self.total / self.observations if self.observations else 0.0

    def state(self) -> Dict:
        return {
            "value": self.value,
            "min": self.min if self.observations else 0.0,
            "max": self.max if self.observations else 0.0,
            "mean": self.mean,
            "observations": self.observations,
        }


class Ewma:
    """Exponentially weighted moving average (training-loss smoothing)."""

    __slots__ = ("alpha", "value", "last", "observations")
    kind = "ewma"

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = 0.0
        self.last = 0.0
        self.observations = 0

    def update(self, value: float) -> None:
        value = float(value)
        self.last = value
        if self.observations == 0:
            self.value = value
        else:
            self.value = self.alpha * value + (1.0 - self.alpha) * self.value
        self.observations += 1

    def state(self) -> Dict:
        return {
            "value": self.value,
            "last": self.last,
            "alpha": self.alpha,
            "observations": self.observations,
        }


class Histogram:
    """Fixed-bucket histogram with exact quantile readout.

    Bucket counts (cumulative, Prometheus-style ``le`` semantics with an
    implicit +Inf bucket) serve the exposition format; alongside them the
    histogram keeps every observation (appended by :meth:`observe`, sorted
    when next read), so
    :meth:`quantile` is *exact*, not a bucket interpolation.  At
    simulation scale (at most ~10^5 observations per run) the memory cost
    is negligible.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_values", "_sorted")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float]):
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets):
            raise ValueError(f"bucket bounds must be sorted: {buckets}")
        if len(set(buckets)) != len(buckets):
            raise ValueError(f"bucket bounds must be unique: {buckets}")
        self.buckets = buckets
        #: Per-bucket (non-cumulative) counts; the +Inf bucket is last.
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._values: List[float] = []
        #: Length of the sorted prefix of ``_values``; what :meth:`observe`
        #: appended since the last read lies past it.
        self._sorted = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self._values.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of everything observed so far:
        nearest-rank on the retained values, 0.0 before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        values = self._values
        if self._sorted != self.count:
            values.sort()
            self._sorted = self.count
        return values[min(int(q * self.count), self.count - 1)]

    def cumulative_counts(self) -> List[int]:
        """Cumulative ``le`` counts, one per bound plus the +Inf bucket."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def state(self) -> Dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


Metric = Union[Counter, Gauge, Ewma, Histogram]


class _Family(dict):
    """One named metric family: a constructor plus labeled children.

    As a mapping it is the aggregator's fast path: ``family[raw]`` is the
    child that :meth:`labels` — the validating, ``str()``-coercing public
    path — returned the first time ``raw`` was seen, for a label value
    exactly as a record carries it (a tuple of them for several labels,
    ``()`` for none).  The one invariant: the mapping caches *children*,
    never values, so :attr:`children` holds exactly what a ``labels()``
    call per record would have built, from the record that would have
    built it.
    """

    __slots__ = ("name", "help", "label_names", "factory", "children", "kind")

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        factory: Callable[[], Metric],
    ):
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.factory = factory
        self.children: Dict[LabelValue, Metric] = {}
        self.kind = factory().kind

    def __missing__(self, raw) -> Metric:
        values = raw if type(raw) is tuple else (raw,)
        child = self[raw] = self.labels(*values)
        return child

    def labels(self, *values: str) -> Metric:
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self.children.get(key)
        if child is None:
            child = self.factory()
            self.children[key] = child
        return child


def _valid_metric_name(name: str) -> bool:
    return bool(name) and all(
        ch.isalnum() or ch == "_" for ch in name
    ) and not name[0].isdigit()


class MetricsRegistry:
    """Holds metric families and renders snapshots.

    Family and label names follow Prometheus conventions
    (``[a-zA-Z_][a-zA-Z0-9_]*``) so the exposition output is valid as-is.
    """

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str],
        factory: Callable[[], Metric],
    ) -> _Family:
        if not _valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _valid_metric_name(label):
                raise ValueError(f"invalid label name {label!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, help_text, tuple(label_names), factory)
            self._families[name] = family
        return family

    # Family constructors --------------------------------------------------
    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._register(name, help_text, labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._register(name, help_text, labels, Gauge)

    def ewma(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        alpha: float = 0.3,
    ) -> _Family:
        return self._register(name, help_text, labels, lambda: Ewma(alpha))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help_text: str = "",
        labels: Sequence[str] = (),
    ) -> _Family:
        bounds = tuple(buckets)
        return self._register(
            name, help_text, labels, lambda: Histogram(bounds)
        )

    # Export ---------------------------------------------------------------
    def snapshot(self) -> Dict:
        """The versioned JSON-serialisable snapshot document.

        Families and label sets are emitted in sorted order, so the
        document — and hence its serialised bytes — is a pure function of
        the aggregate state, independent of observation order effects on
        dict insertion.
        """
        families: Dict[str, Dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family.children):
                metric = family.children[key]
                series.append({
                    "labels": dict(zip(family.label_names, key)),
                    **metric.state(),
                })
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return {"snapshot_version": SNAPSHOT_VERSION, "families": families}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            prom_type = {
                "counter": "counter",
                "gauge": "gauge",
                "ewma": "gauge",
                "histogram": "histogram",
            }[family.kind]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {prom_type}")
            for key in sorted(family.children):
                metric = family.children[key]
                labels = _format_labels(family.label_names, key)
                if isinstance(metric, Histogram):
                    cumulative = metric.cumulative_counts()
                    for bound, count in zip(metric.buckets, cumulative):
                        le = _format_labels(
                            family.label_names + ("le",),
                            key + (_format_value(bound),),
                        )
                        lines.append(f"{name}_bucket{le} {count}")
                    inf = _format_labels(
                        family.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{inf} {metric.count}")
                    lines.append(
                        f"{name}_sum{labels} {_format_value(metric.sum)}"
                    )
                    lines.append(f"{name}_count{labels} {metric.count}")
                else:
                    lines.append(
                        f"{name}{labels} {_format_value(metric.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


def _format_value(value: float) -> str:
    """Shortest-round-trip float formatting (matches json.dumps output)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class MetricsAggregator:
    """Streams trace records into the registry — the metric catalogue.

    One aggregator instance serves both the live path (wrapped in a
    :class:`MetricsSink`) and the offline path (:func:`aggregate_trace`);
    the dispatch below is the single definition of how raw records map to
    aggregates.  It is compiled as records arrive: a ``kind`` resolves,
    in one lookup, to its ``repro_records_total`` child and its fold, and
    a fold reaches labeled children through ``family[raw]`` instead of a
    ``labels()`` call per record.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        r = self.registry
        self._records = r.counter(
            "repro_records_total", "trace records seen by kind", ("kind",)
        )
        self._arrivals = r.counter(
            "repro_arrivals_total", "workflow requests submitted",
            ("workflow",),
        )
        self._completions = r.counter(
            "repro_completions_total", "workflow requests completed",
            ("workflow",),
        )
        self._response = r.histogram(
            "repro_response_time_seconds", RESPONSE_TIME_BUCKETS,
            "workflow response time (submission to completion)",
            ("workflow",),
        )
        self._publishes = r.counter(
            "repro_publishes_total", "task requests published", ("queue",)
        )
        self._redeliveries = r.counter(
            "repro_redeliveries_total", "nacked requests redelivered",
            ("queue",),
        )
        self._queue_depth = r.histogram(
            "repro_queue_depth", QUEUE_DEPTH_BUCKETS,
            "ready-queue depth observed at publish", ("queue",),
        )
        self._startup = r.histogram(
            "repro_startup_latency_seconds", STARTUP_LATENCY_BUCKETS,
            "container creation-to-first-consume latency", ("service",),
        )
        self._service_time = r.histogram(
            "repro_service_time_seconds", SERVICE_TIME_BUCKETS,
            "per-task processing time", ("service",),
        )
        self._queue_wait = r.histogram(
            "repro_queue_wait_seconds", QUEUE_WAIT_BUCKETS,
            "publish-to-processing-start wait per task", ("service",),
        )
        self._task_retries = r.counter(
            "repro_task_retries_total",
            "extra delivery attempts (redeliveries) per completed task",
            ("service",),
        )
        self._wasted_work = r.counter(
            "repro_wasted_work_seconds",
            "processing time lost to interrupted attempts", ("service",),
        )
        self._consumer_events = r.counter(
            "repro_consumer_events_total",
            "container lifecycle transitions", ("service", "event"),
        )
        self._faults = r.counter(
            "repro_faults_total", "injected faults", ("fault",)
        )
        self._node_used = r.gauge(
            "repro_node_slots_used", "cluster slots in use", ("node",)
        )
        self._collect_episodes = r.counter(
            "repro_collect_episodes_total",
            "distributed-collection episodes merged", ("lane",),
        )
        self._collect_steps = r.counter(
            "repro_collect_steps_total",
            "real-environment transitions collected", ("lane",),
        )
        self._collect_return = r.gauge(
            "repro_collect_episode_return",
            "return of the last merged collection episode", ("lane",),
        )
        self._windows = r.counter(
            "repro_windows_total", "control windows observed"
        )
        self._window_reward = r.gauge(
            "repro_window_reward", "Eq. (1) reward at the window boundary"
        )
        self._wip = r.gauge(
            "repro_wip", "work-in-progress at the window boundary",
            ("service",),
        )
        self._allocation = r.gauge(
            "repro_allocation", "consumers allocated at the window boundary",
            ("service",),
        )
        self._busy = r.gauge(
            "repro_busy_consumers", "busy consumers at the window boundary",
            ("service",),
        )
        self._utilization = r.gauge(
            "repro_utilization",
            "busy / allocated at the window boundary", ("service",),
        )
        self._queue_ready = r.gauge(
            "repro_queue_ready", "ready-queue depth at the window boundary",
            ("service",),
        )
        self._sim_time = r.gauge(
            "repro_sim_time_seconds", "simulation clock at the last record"
        )
        self._training_last = r.gauge(
            "repro_training_metric", "last value per training metric",
            ("name",),
        )
        self._training_ewma = r.ewma(
            "repro_training_metric_ewma",
            "EWMA per training metric (loss smoothing)", ("name",),
        )
        #: Every response time of the run, in fold order past the prefix
        #: that :func:`window_summary_row` sorted at the last row.
        self._response_merged: List[float] = []
        #: kind -> (its ``repro_records_total`` child, its fold or None).
        self._dispatch: Dict[str, Tuple[Counter, Optional[Callable]]] = {}

    # Dispatch -------------------------------------------------------------
    def observe(self, record: Mapping) -> Optional[str]:
        """Fold one trace record into the aggregates; returns its kind."""
        kind = record.get("kind")
        try:
            seen, fold = self._dispatch[kind]
        except (KeyError, TypeError):
            if not isinstance(kind, str):
                return None
            seen, fold = self._dispatch[kind] = (
                self._records.labels(kind), self._HANDLERS.get(kind)
            )
        seen.value += 1.0  # inc() minus the call: one per record
        t = record.get("t")
        if t is not None:
            self._sim_time[()].set(t)
        if fold is not None:
            fold(self, record)
        return kind

    def _on_arrival(self, record: Mapping) -> None:
        self._arrivals[record["workflow"]].inc()

    def _on_workflow_complete(self, record: Mapping) -> None:
        workflow = record["workflow"]
        self._completions[workflow].inc()
        response_time = float(record["response_time"])
        self._response[workflow].observe(response_time)
        self._response_merged.append(response_time)

    def _on_publish(self, record: Mapping) -> None:
        queue = record["queue"]
        self._publishes[queue].inc()
        self._queue_depth[queue].observe(record["depth"])

    def _on_redeliver(self, record: Mapping) -> None:
        self._redeliveries[record["queue"]].inc()

    def _on_consumer_start(self, record: Mapping) -> None:
        self._consumer_events[record["service"], "start"].inc()

    def _on_consumer_ready(self, record: Mapping) -> None:
        service = record["service"]
        self._consumer_events[service, "ready"].inc()
        self._startup[service].observe(record["startup_latency"])

    def _on_consumer_stop(self, record: Mapping) -> None:
        self._consumer_events[
            record["service"], f"stop_{record['mode']}"
        ].inc()

    def _on_task_complete(self, record: Mapping) -> None:
        self._service_time[record["service"]].observe(
            record["service_time"]
        )

    def _on_task_span(self, record: Mapping) -> None:
        service = record["service"]
        self._queue_wait[service].observe(
            record["started"] - record["published"]
        )
        retries = record["deliveries"] - 1
        if retries > 0:
            self._task_retries[service].inc(retries)
        wasted = record["wasted"]
        if wasted > 0:
            self._wasted_work[service].inc(wasted)

    def _on_fault(self, record: Mapping) -> None:
        self._faults[record["fault"]].inc()

    def _on_placement(self, record: Mapping) -> None:
        self._node_used[record["node"]].set(record["used"])

    def _on_window(self, record: Mapping) -> None:
        self._windows[()].inc()
        self._window_reward[()].set(record["reward"])
        allocation = record["allocation"]
        busy = record["busy"]
        for service, wip in record["wip"].items():
            self._wip[service].set(wip)
        for service, count in allocation.items():
            self._allocation[service].set(count)
        for service, count in busy.items():
            self._busy[service].set(count)
            allocated = allocation.get(service, 0)
            if allocated:
                self._utilization[service].set(count / allocated)
        for service, depth in record["queue_ready"].items():
            self._queue_ready[service].set(depth)

    def _on_collect(self, record: Mapping) -> None:
        lane = f"lane{record['lane']}"
        self._collect_episodes[lane].inc()
        self._collect_steps[lane].inc(record["steps"])
        self._collect_return[lane].set(record["reward"])

    def _on_metric(self, record: Mapping) -> None:
        name = record["name"]
        value = record["value"]
        self._training_last[name].set(value)
        self._training_ewma[name].update(value)

    _HANDLERS: Dict[str, Callable] = {
        "event.arrival": _on_arrival,
        "event.workflow_complete": _on_workflow_complete,
        "event.publish": _on_publish,
        "event.redeliver": _on_redeliver,
        "event.consumer_start": _on_consumer_start,
        "event.consumer_ready": _on_consumer_ready,
        "event.consumer_stop": _on_consumer_stop,
        "event.task_complete": _on_task_complete,
        "event.task_span": _on_task_span,
        "event.fault": _on_fault,
        "event.placement": _on_placement,
        "event.release": _on_placement,
        "span.window": _on_window,
        "span.collect": _on_collect,
        "metric": _on_metric,
    }

    # Export ---------------------------------------------------------------
    def snapshot(self) -> Dict:
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()


class MetricsSink(Sink):
    """A sink that aggregates every record, then forwards it downstream.

    This is the live half of the engine: wrap any real sink
    (``MetricsSink(JsonlSink(path))``) — or nothing at all, for
    metrics-only runs — and hand the result to a :class:`Tracer`.  The
    per-window snapshot hook rides on the ``span.window`` record that
    ``system.run_window()`` emits at every window boundary: deriving the
    hook from the record stream (rather than a callback on the system)
    is what keeps offline replay identical to the live path.
    """

    def __init__(self, downstream: Optional[Sink] = None):
        self.downstream = downstream
        self.aggregator = MetricsAggregator()
        #: One compact row per window (see :func:`window_summary_row`).
        self.window_snapshots: List[Dict] = []

    def write(self, record: Dict) -> None:
        if self.aggregator.observe(record) == "span.window":
            row = window_summary_row(self.aggregator)
            row["window"] = record.get("index")
            self.window_snapshots.append(row)
        if self.downstream is not None:
            self.downstream.write(record)

    def flush(self) -> None:
        if self.downstream is not None:
            self.downstream.flush()

    def close(self) -> None:
        if self.downstream is not None:
            self.downstream.close()

    def snapshot(self) -> Dict:
        """Full registry snapshot plus the per-window series."""
        document = self.aggregator.snapshot()
        document["window_series"] = list(self.window_snapshots)
        return document

    def to_prometheus(self) -> str:
        return self.aggregator.to_prometheus()


def window_summary_row(aggregator: MetricsAggregator) -> Dict:
    """The compact per-window snapshot row (cumulative aggregates).

    Deliberately small — one dict per control window — so long runs stay
    cheap while still recording a quantile *trajectory* over time rather
    than only the end-of-run distribution.
    """
    registry = aggregator.registry
    row: Dict = {}
    p50 = p95 = p99 = 0.0
    merged = aggregator._response_merged
    if merged:
        # Sorted up to the last row: Timsort merges the new tail in ~O(n)
        # where re-merging every histogram was O(n log n) per window.
        merged.sort()
        p50 = merged[min(int(0.50 * len(merged)), len(merged) - 1)]
        p95 = merged[min(int(0.95 * len(merged)), len(merged) - 1)]
        p99 = merged[min(int(0.99 * len(merged)), len(merged) - 1)]
    row["completions"] = len(merged)
    row["response_p50"] = p50
    row["response_p95"] = p95
    row["response_p99"] = p99
    wip = registry._families["repro_wip"]
    row["wip_total"] = sum(g.value for g in wip.children.values())
    row["reward"] = aggregator._window_reward.labels().value
    return row


def aggregate_trace(records: Iterable[Mapping]) -> MetricsSink:
    """Replay loaded trace records through a fresh metrics sink.

    Returns the :class:`MetricsSink` (with no downstream) so callers get
    both the aggregates and the per-window series — identical to what a
    live run with the same records would have produced.
    """
    sink = MetricsSink()
    for record in records:
        sink.write(record)
    return sink


def snapshot_to_json(snapshot: Mapping) -> str:
    """Canonical JSON serialisation of a snapshot document.

    Sorted keys and compact separators: two equal snapshots serialise to
    identical bytes, which is what the determinism tests compare.
    """
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":")) + "\n"


def write_metrics(outdir: Union[str, Path], sink: MetricsSink) -> Path:
    """Write ``metrics.json`` and ``metrics.prom`` into a run directory."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    target = outdir / METRICS_FILENAME
    target.write_text(snapshot_to_json(sink.snapshot()), encoding="utf-8")
    (outdir / EXPOSITION_FILENAME).write_text(
        sink.to_prometheus(), encoding="utf-8"
    )
    return target
