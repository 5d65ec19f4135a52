"""Streaming metrics aggregation: from trace records to live histograms.

The metrics engine turns the record stream a :class:`~repro.telemetry.tracer.Tracer`
emits into *aggregates* — labeled counters, gauges, EWMAs, and
fixed-bucket histograms with exact quantile readout (P50/P95/P99 of
response time, queue depth, startup latency, per-service WIP and
utilization, training-loss EWMAs).  It is fed two ways:

- **live** — a :class:`MetricsSink` composes with any other sink
  (``Tracer(MetricsSink(JsonlSink(...)))``) and aggregates what it is
  written a control window at a time (always before anything is read:
  see :class:`MetricsSink`),
- **offline** — :func:`aggregate_trace` replays an existing
  ``trace.jsonl`` through the *same* sink.

Because both paths write the identical record dicts to the same
:meth:`MetricsSink.write`, the live and post-hoc numbers are equal **by
construction** — the determinism tests pin byte-identical JSON
snapshots.  Nothing in this module reads a
clock or an RNG: every aggregate is a pure function of the record
stream, so same-seed runs produce identical snapshots.

Snapshots export two ways: a versioned JSON document
(:meth:`MetricsRegistry.snapshot` + :func:`snapshot_to_json`) and the
Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import deque
from itertools import accumulate, islice
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

#: Records a :class:`MetricsSink` queues before it folds them regardless:
#: bounds the queue of a trace with no windows (a ``metric``-only
#: training run).
PENDING_LIMIT = 4096

LabelValue = Tuple[str, ...]


def _running_sum(start: float, values: Iterable[float]) -> float:
    """``start + v0 + v1 + ...`` added left to right, one rounding per
    term: what a ``+=`` per observation gives, and what the byte pins
    cover.  Builtin ``sum`` (compensated since Python 3.12),
    ``math.fsum`` and numpy's pairwise sum all round differently.
    """
    return deque(accumulate(values, initial=start), maxlen=1)[0]


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

    def set_many(self, values: Sequence[float]) -> None:
        """:meth:`set` for each of ``values`` (at least one), in order."""
        values = list(map(float, values))
        self.value = values[-1]
        self.min = min(self.min, min(values))
        self.max = max(self.max, max(values))
        self.total = _running_sum(self.total, values)
        self.observations += len(values)

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

    The histogram *is* the list of its observations: observing appends,
    and everything read off it is settled when next read — the new tail
    joins the sum in observation order (see :func:`_running_sum`), then
    the list is sorted.  Bucket counts (Prometheus-style ``le`` semantics
    with an implicit +Inf bucket) are positions in the sorted list, and
    :meth:`quantile` is *exact*, not a bucket interpolation.  At
    simulation scale (at most ~10^5 observations per run) the memory cost
    is negligible.
    """

    __slots__ = ("buckets", "_values", "_sum", "_settled")
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
        self._values: List[float] = []
        self._sum = 0.0
        #: Length of the prefix of ``_values`` that is sorted and summed;
        #: what was observed since the last read lies past it, in order.
        self._settled = 0

    def observe(self, value: float) -> None:
        self._values.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record ``values`` in observation order."""
        self._values += values

    def _settle(self) -> List[float]:
        """Every observation, sorted, with :attr:`sum` caught up."""
        values = self._values
        if self._settled != len(values):
            fresh = islice(values, self._settled, None)
            self._sum = _running_sum(self._sum, map(float, fresh))
            values.sort()
            self._settled = len(values)
        return values

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        self._settle()
        return self._sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of everything observed so far:
        nearest-rank on the retained values, 0.0 before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        values = self._settle()
        if not values:
            return 0.0
        return float(values[min(int(q * len(values)), len(values) - 1)])

    def cumulative_counts(self) -> List[int]:
        """Cumulative ``le`` counts, one per bound plus the +Inf bucket."""
        values = self._settle()
        return [bisect_right(values, bound) for bound in self.buckets] + [
            len(values)
        ]

    @property
    def counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; the +Inf bucket is last."""
        cumulative = self.cumulative_counts()
        return [
            count - below for count, below in zip(cumulative, [0] + cumulative)
        ]

    def state(self) -> Dict:
        return {
            "buckets": list(self.buckets),
            "counts": self.counts,
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
                if family.kind == "histogram":
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


def _grouped(records: Iterable[Mapping], label: str, field: str) -> Dict:
    """``record[field]`` of every record, as one list per ``record[label]``
    in stream order."""
    groups: Dict = {}
    for record in records:
        key = record[label]
        try:
            groups[key].append(record[field])
        except KeyError:
            groups[key] = [record[field]]
    return groups


class MetricsAggregator:
    """Streams trace records into the registry — the metric catalogue.

    One aggregator instance serves both the live path (wrapped in a
    :class:`MetricsSink`) and the offline path (:func:`aggregate_trace`);
    the folds below are the single definition of how raw records map to
    aggregates.  A fold takes the records of its kind as a list, hoists
    its family and label lookups out of the per-record work, and reaches
    labeled children through ``family[raw]`` instead of a ``labels()``
    call per record.
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

    # Dispatch -------------------------------------------------------------
    def observe(self, record: Mapping) -> None:
        """Fold one trace record into the aggregates."""
        self.observe_many((record,))

    def observe_many(self, records: Iterable[Mapping]) -> None:
        """Fold ``records`` into the aggregates, as if one at a time.

        One pass carries the clock gauge and partitions the records **by
        fold**, each part in stream order; then every fold runs once over
        its part.  By fold and not by kind, because a gauge keeps the
        last value and a running mean: ``event.placement`` and
        ``event.release`` both set ``repro_node_slots_used``, so they
        share a fold and stay interleaved.  Everything else two folds
        share is an integer-valued counter (``repro_consumer_events_total``,
        ``repro_records_total``), which no order can move.
        """
        handlers = self._HANDLERS
        part_of: Dict[str, List[Mapping]] = {}  # kind -> its fold's part
        parts: Dict[Optional[Callable], Tuple[List[Mapping], List[str]]] = {}
        times: List[float] = []
        for record in records:
            try:
                part_of[record["kind"]].append(record)
            except (KeyError, TypeError):
                kind = record.get("kind")
                if not isinstance(kind, str):
                    continue
                part, kinds = parts.setdefault(handlers.get(kind), ([], []))
                kinds.append(kind)
                part.append(record)
                part_of[kind] = part
            try:
                t = record["t"]
            except KeyError:
                continue
            if t is not None:
                times.append(t)
        if times:
            self._sim_time[()].set_many(times)
        seen = self._records
        for fold, (part, kinds) in parts.items():
            if len(kinds) == 1:
                seen[kinds[0]].inc(len(part))
            else:
                for record in part:
                    seen[record["kind"]].inc()
            if fold is not None:
                fold(self, part)

    def _fold_arrivals(self, records: List[Mapping]) -> None:
        for record in records:
            self._arrivals[record["workflow"]].inc()

    def _fold_workflow_completions(self, records: List[Mapping]) -> None:
        by_workflow = _grouped(records, "workflow", "response_time")
        for workflow, response_times in by_workflow.items():
            response_times = list(map(float, response_times))
            self._completions[workflow].inc(len(response_times))
            self._response[workflow].observe_many(response_times)
            self._response_merged += response_times

    def _fold_publishes(self, records: List[Mapping]) -> None:
        for queue, depths in _grouped(records, "queue", "depth").items():
            self._publishes[queue].inc(len(depths))
            self._queue_depth[queue].observe_many(depths)

    def _fold_redeliveries(self, records: List[Mapping]) -> None:
        for record in records:
            self._redeliveries[record["queue"]].inc()

    def _fold_consumer_starts(self, records: List[Mapping]) -> None:
        for record in records:
            self._consumer_events[record["service"], "start"].inc()

    def _fold_consumer_readies(self, records: List[Mapping]) -> None:
        for record in records:
            service = record["service"]
            self._consumer_events[service, "ready"].inc()
            self._startup[service].observe(record["startup_latency"])

    def _fold_consumer_stops(self, records: List[Mapping]) -> None:
        for record in records:
            self._consumer_events[
                record["service"], f"stop_{record['mode']}"
            ].inc()

    def _fold_task_completions(self, records: List[Mapping]) -> None:
        by_service = _grouped(records, "service", "service_time")
        for service, service_times in by_service.items():
            self._service_time[service].observe_many(service_times)

    def _fold_task_spans(self, records: List[Mapping]) -> None:
        waits: Dict[str, List[float]] = {}
        for record in records:
            service = record["service"]
            wait = record["started"] - record["published"]
            try:
                waits[service].append(wait)
            except KeyError:
                waits[service] = [wait]
            if record["deliveries"] > 1:
                self._task_retries[service].inc(record["deliveries"] - 1)
            if record["wasted"] > 0:
                self._wasted_work[service].inc(record["wasted"])
        for service, service_waits in waits.items():
            self._queue_wait[service].observe_many(service_waits)

    def _fold_faults(self, records: List[Mapping]) -> None:
        for record in records:
            self._faults[record["fault"]].inc()

    def _fold_node_slots(self, records: List[Mapping]) -> None:
        for record in records:
            self._node_used[record["node"]].set(record["used"])

    def _fold_windows(self, records: List[Mapping]) -> None:
        for record in records:
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

    def _fold_collects(self, records: List[Mapping]) -> None:
        for record in records:
            lane = f"lane{record['lane']}"
            self._collect_episodes[lane].inc()
            self._collect_steps[lane].inc(record["steps"])
            self._collect_return[lane].set(record["reward"])

    def _fold_metrics(self, records: List[Mapping]) -> None:
        for record in records:
            name = record["name"]
            value = record["value"]
            self._training_last[name].set(value)
            self._training_ewma[name].update(value)

    #: kind -> the fold over that kind's records.  Kinds naming one fold
    #: are folded together, interleaved (see :meth:`observe_many`).
    _HANDLERS: Dict[str, Callable] = {
        "event.arrival": _fold_arrivals,
        "event.workflow_complete": _fold_workflow_completions,
        "event.publish": _fold_publishes,
        "event.redeliver": _fold_redeliveries,
        "event.consumer_start": _fold_consumer_starts,
        "event.consumer_ready": _fold_consumer_readies,
        "event.consumer_stop": _fold_consumer_stops,
        "event.task_complete": _fold_task_completions,
        "event.task_span": _fold_task_spans,
        "event.fault": _fold_faults,
        "event.placement": _fold_node_slots,
        "event.release": _fold_node_slots,
        "span.window": _fold_windows,
        "span.collect": _fold_collects,
        "metric": _fold_metrics,
    }

    # Export ---------------------------------------------------------------
    def snapshot(self) -> Dict:
        return self.registry.snapshot()

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()


class MetricsSink(Sink):
    """A sink that aggregates what it is written, then forwards it downstream.

    This is the live half of the engine: wrap any real sink
    (``MetricsSink(JsonlSink(path))``) — or nothing at all, for
    metrics-only runs — and hand the result to a :class:`Tracer`.  The
    per-window snapshot hook rides on the ``span.window`` record that
    ``system.run_window()`` emits at every window boundary: deriving the
    hook from the record stream (rather than a callback on the system)
    is what keeps offline replay identical to the live path.

    **When aggregates are current.**  :meth:`write` only queues a
    record; the queue is folded, in order, when a ``span.window`` record
    arrives (its summary row reads the aggregates), when it reaches
    ``PENDING_LIMIT`` records, and before every read —
    :attr:`aggregator`, :meth:`snapshot`, :meth:`to_prometheus`.  So a
    reader never sees a stale aggregate and never calls a flush, and
    *when* the folds ran cannot change a byte: the fold is order
    preserving.  A record the fold cannot read (a registered kind
    missing a payload field) raises there, not at its ``write``.
    """

    def __init__(self, downstream: Optional[Sink] = None):
        self.downstream = downstream
        self._aggregator = MetricsAggregator()
        self._pending: List[Dict] = []
        #: One compact row per window (see :func:`window_summary_row`);
        #: a row is appended as its window record is written.
        self.window_snapshots: List[Dict] = []

    @property
    def aggregator(self) -> MetricsAggregator:
        """The aggregates of everything written so far."""
        if self._pending:
            self._fold()
        return self._aggregator

    def _fold(self) -> None:
        pending, self._pending = self._pending, []
        self._aggregator.observe_many(pending)

    def write(self, record: Dict) -> None:
        pending = self._pending
        pending.append(record)
        if record.get("kind") == "span.window":
            row = window_summary_row(self.aggregator)
            row["window"] = record.get("index")
            self.window_snapshots.append(row)
        elif len(pending) >= PENDING_LIMIT:
            self._fold()
        downstream = self.downstream
        if downstream is not None:
            downstream.write(record)

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
