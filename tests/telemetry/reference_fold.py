"""The record-by-record metrics fold, kept as the oracle.

Until PR 24 ``repro.telemetry.metrics`` folded every trace record the
moment it was written: ``MetricsSink.write`` -> ``MetricsAggregator.observe``
-> the kind's ``_on_*`` handler -> ``Histogram.observe`` / ``Gauge.set``.
The sink now queues records and folds a window's worth at once, one list
fold per kind, and a histogram settles its sum and bucket counts when
read instead of per observation.  The per-record fold lives here — the
``Histogram`` class and the method bodies below are the parent's
(71ddc62), verbatim — as the reference
``tests/telemetry/test_fold_differential.py`` compares the batch fold
against, byte for byte.  Its placement fold went with schema v6's
placement and release records.

:class:`ReferenceSink` is a drop-in for ``MetricsSink``: same registry,
same families, same snapshot / exposition / window-row code; only *how a
record reaches a child metric*, and what a histogram does with it, is
the old way.
"""

from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from unittest import mock

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    MetricsAggregator,
    MetricsRegistry,
    _Family,
    window_summary_row,
)
from repro.telemetry import metrics
from repro.telemetry.sinks import Sink


class ReferenceGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.total += value
        self.observations += 1


class ReferenceHistogram:
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


class ReferenceRegistry(MetricsRegistry):
    """The registry, building the per-observation metric classes."""

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._register(name, help_text, labels, ReferenceGauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help_text: str = "",
        labels: Sequence[str] = (),
    ) -> _Family:
        bounds = tuple(buckets)
        return self._register(
            name, help_text, labels, lambda: ReferenceHistogram(bounds)
        )


class ReferenceAggregator(MetricsAggregator):
    """The metric catalogue of ``MetricsAggregator`` (inherited
    ``__init__``), folded one record at a time."""

    def __init__(self):
        # The catalogue registers on the module's MetricsRegistry.
        with mock.patch.object(metrics, "MetricsRegistry", ReferenceRegistry):
            super().__init__()
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
        "span.window": _on_window,
        "span.collect": _on_collect,
        "metric": _on_metric,
    }


class ReferenceSink(Sink):
    """``MetricsSink`` as it was: aggregates every record as written."""

    def __init__(self, downstream: Optional[Sink] = None):
        self.downstream = downstream
        self.aggregator = ReferenceAggregator()
        self.window_snapshots: List[Dict] = []

    def write(self, record: Dict) -> None:
        if self.aggregator.observe(record) == "span.window":
            row = window_summary_row(self.aggregator)
            row["window"] = record.get("index")
            self.window_snapshots.append(row)
        if self.downstream is not None:
            self.downstream.write(record)

    def snapshot(self) -> Dict:
        document = self.aggregator.snapshot()
        document["window_series"] = list(self.window_snapshots)
        return document

    def to_prometheus(self) -> str:
        return self.aggregator.to_prometheus()
