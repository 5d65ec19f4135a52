"""Metrics engine tests: primitives, aggregation, and the live==replay
determinism contract."""

import json
from bisect import insort

import numpy as np
import pytest

from repro.eval.runner import make_env
from repro.sim.system import SystemConfig
from repro.telemetry import (
    MemorySink,
    MetricsAggregator,
    MetricsRegistry,
    MetricsSink,
    Tracer,
    aggregate_trace,
    load_trace,
    snapshot_to_json,
    write_metrics,
)
from repro.telemetry.metrics import (
    Counter,
    Ewma,
    Gauge,
    Histogram,
    RESPONSE_TIME_BUCKETS,
    SNAPSHOT_VERSION,
)
from repro.workflows import build_msd_ensemble


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match=">= 0"):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_extremes_and_mean(self):
        g = Gauge()
        for v in (3.0, 1.0, 5.0):
            g.set(v)
        state = g.state()
        assert state["value"] == 5.0
        assert state["min"] == 1.0
        assert state["max"] == 5.0
        assert state["mean"] == pytest.approx(3.0)
        assert state["observations"] == 3

    def test_unobserved_state_is_all_zero(self):
        state = Gauge().state()
        assert state == {
            "value": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "observations": 0,
        }


class TestEwma:
    def test_first_observation_seeds_the_average(self):
        e = Ewma(alpha=0.5)
        e.update(10.0)
        assert e.value == 10.0

    def test_smoothing(self):
        e = Ewma(alpha=0.5)
        e.update(10.0)
        e.update(0.0)
        assert e.value == pytest.approx(5.0)
        assert e.last == 0.0

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            Ewma(alpha=0.0)
        with pytest.raises(ValueError):
            Ewma(alpha=1.5)


class TestHistogram:
    def test_bucket_counts_and_cumulative(self):
        h = Histogram((1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]
        assert h.cumulative_counts() == [1, 3, 4, 5]
        assert h.count == 5
        assert h.sum == pytest.approx(106.7)

    def test_exact_quantiles(self):
        h = Histogram((10.0, 100.0))
        for v in range(1, 101):
            h.observe(float(v))
        assert h.quantile(0.50) == 51.0  # nearest-rank on exact values
        assert h.quantile(0.95) == 96.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_empty_quantile_is_zero(self):
        assert Histogram((1.0,)).quantile(0.99) == 0.0

    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 3.0, 3.0, 2.0, 1.0, 3.0, 2.0, 2.0, 1.0, 0.0, -0.0],
        [float(v) for v in range(60, 0, -1)],
        np.random.default_rng(5).uniform(0.0, 50.0, 200).tolist(),
    ], ids=["duplicates", "descending", "random"])
    def test_sort_on_read_equals_insort_under_interleaved_reads(self, values):
        """Reading between observations (quantile, then state, then
        nothing) never changes what a later read returns: it is always
        the nearest-rank value of an insort-maintained reference."""
        h = Histogram((10.0, 100.0))
        reference = []

        def nearest(q):
            return reference[min(int(q * len(reference)), len(reference) - 1)]

        for i, value in enumerate(values):
            h.observe(value)
            insort(reference, value)
            if i % 3 == 0:
                for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
                    assert h.quantile(q) == nearest(q)
            elif i % 3 == 1:
                state = h.state()
                assert state["count"] == len(reference)
                assert state["p50"] == nearest(0.50)
                assert state["p95"] == nearest(0.95)
                assert state["p99"] == nearest(0.99)
        for k in range(len(values)):
            assert h.quantile(k / len(values)) == nearest(k / len(values))

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            Histogram((1.0,)).quantile(1.5)


class TestRegistry:
    def test_labels_create_children_lazily(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "help", ("service",))
        family.labels("a").inc()
        family.labels("a").inc()
        family.labels("b").inc()
        assert family.labels("a").value == 2.0
        assert family.labels("b").value == 1.0

    def test_label_arity_enforced(self):
        registry = MetricsRegistry()
        family = registry.gauge("y", labels=("a", "b"))
        with pytest.raises(ValueError, match="expected labels"):
            family.labels("only-one")

    def test_labels_coerce_to_the_child_of_their_str(self):
        registry = MetricsRegistry()
        family = registry.gauge("slots", labels=("node",))
        assert family.labels(3) is family.labels("3")
        assert list(family.children) == [("3",)]

    def test_fast_path_resolves_through_labels_once(self):
        """``family[raw]`` is a cache over ``labels()``: same children,
        same validation, nothing built that ``labels()`` would not."""
        registry = MetricsRegistry()
        nodes = registry.gauge("slots", labels=("node",))
        assert nodes[3] is nodes["3"] is nodes.labels("3")
        assert list(nodes.children) == [("3",)]
        events = registry.counter("events_total", labels=("service", "event"))
        assert events["Ingest", "ready"] is events.labels("Ingest", "ready")
        with pytest.raises(ValueError, match="expected labels"):
            events["Ingest"]
        assert "Ingest" not in events and len(events.children) == 1
        plain = registry.counter("windows_total")
        assert plain.children == {}  # label-less children are lazy too
        assert plain[()] is plain.labels()

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("1bad")
        with pytest.raises(ValueError):
            registry.counter("has-dash")
        with pytest.raises(ValueError):
            registry.counter("ok", labels=("bad label",))

    def test_snapshot_is_sorted_and_versioned(self):
        registry = MetricsRegistry()
        registry.counter("z_total").labels().inc()
        registry.counter("a_total").labels().inc()
        snapshot = registry.snapshot()
        assert snapshot["snapshot_version"] == SNAPSHOT_VERSION
        assert list(snapshot["families"]) == ["a_total", "z_total"]

    def test_prometheus_exposition_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "rt_seconds", (1.0, 2.0), help_text="resp", labels=("wf",)
        )
        hist.labels("Type1").observe(0.5)
        hist.labels("Type1").observe(5.0)
        text = registry.to_prometheus()
        assert "# HELP rt_seconds resp" in text
        assert "# TYPE rt_seconds histogram" in text
        assert 'rt_seconds_bucket{wf="Type1",le="1"} 1' in text
        assert 'rt_seconds_bucket{wf="Type1",le="+Inf"} 2' in text
        assert 'rt_seconds_sum{wf="Type1"} 5.5' in text
        assert 'rt_seconds_count{wf="Type1"} 2' in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("name",)).labels('a"b').inc()
        assert 'name="a\\"b"' in registry.to_prometheus()


class TestAggregator:
    def test_every_registered_kind_has_a_handler_or_is_counted(self):
        from repro.telemetry.records import RECORD_SCHEMAS

        handled = set(MetricsAggregator._HANDLERS)
        assert handled <= set(RECORD_SCHEMAS)
        # Every kind the simulator emits today is dispatched.
        assert handled == set(RECORD_SCHEMAS)

    def test_unknown_kind_is_ignored(self):
        agg = MetricsAggregator()
        agg.observe_many([{"kind": "event.not_registered", "t": 1.0}])
        families = agg.snapshot()["families"]
        series = families["repro_records_total"]["series"]
        assert series[0]["labels"] == {"kind": "event.not_registered"}

    def test_window_record_populates_gauges(self):
        agg = MetricsAggregator()
        agg.observe_many([{
            "kind": "span.window", "t": 30.0, "index": 0, "start": 0.0,
            "end": 30.0, "reward": -7.5,
            "wip": {"Ingest": 4.0}, "allocation": {"Ingest": 4},
            "busy": {"Ingest": 2}, "starting": {"Ingest": 0},
            "queue_ready": {"Ingest": 1}, "arrivals": 3, "completions": 1,
        }])
        families = agg.snapshot()["families"]
        util = families["repro_utilization"]["series"][0]
        assert util["labels"] == {"service": "Ingest"}
        assert util["value"] == pytest.approx(0.5)
        assert families["repro_window_reward"]["series"][0]["value"] == -7.5
        assert families["repro_sim_time_seconds"]["series"][0]["value"] == 30.0

    def test_task_span_populates_wait_retry_and_waste_families(self):
        agg = MetricsAggregator()
        agg.observe_many([{
            "kind": "event.task_span", "t": 25.0, "service": "Ingest",
            "request_id": 3, "published": 10.0, "started": 14.0,
            "deliveries": 3, "wasted": 6.5,
        }])
        families = agg.snapshot()["families"]
        wait = families["repro_queue_wait_seconds"]["series"][0]
        assert wait["labels"] == {"service": "Ingest"}
        assert wait["count"] == 1 and wait["sum"] == pytest.approx(4.0)
        retries = families["repro_task_retries_total"]["series"][0]
        assert retries["value"] == 2.0
        wasted = families["repro_wasted_work_seconds"]["series"][0]
        assert wasted["value"] == pytest.approx(6.5)

    def test_clean_task_span_emits_no_retry_or_waste_series(self):
        agg = MetricsAggregator()
        agg.observe_many([{
            "kind": "event.task_span", "t": 5.0, "service": "Ingest",
            "request_id": 0, "published": 1.0, "started": 1.0,
            "deliveries": 1, "wasted": 0.0,
        }])
        families = agg.snapshot()["families"]
        assert families["repro_task_retries_total"]["series"] == []
        assert families["repro_wasted_work_seconds"]["series"] == []

    def test_training_metric_updates_last_and_ewma(self):
        agg = MetricsAggregator()
        for value in (4.0, 2.0):
            agg.observe_many([{
                "kind": "metric", "t": None, "name": "model/epoch_loss",
                "value": value, "step": 1,
            }])
        families = agg.snapshot()["families"]
        last = families["repro_training_metric"]["series"][0]
        ewma = families["repro_training_metric_ewma"]["series"][0]
        assert last["value"] == 2.0
        assert ewma["value"] == pytest.approx(0.3 * 2.0 + 0.7 * 4.0)


def _traced_run(windows=4, seed=11):
    """A short traced MSD run; returns (memory_sink, metrics_sink)."""
    memory = MemorySink()
    sink = MetricsSink(downstream=memory)
    env = make_env(
        build_msd_ensemble(),
        config=SystemConfig(consumer_budget=14),
        seed=seed,
        background_rates={"Type1": 0.5, "Type2": 0.3, "Type3": 0.2},
        tracer=Tracer(sink),
    )
    env.reset()
    env.system.inject_burst({"Type1": 40, "Type2": 20, "Type3": 20})
    for _ in range(windows):
        env.step(np.array([4, 4, 3, 3]))
    return memory, sink


class TestDeterminismContract:
    """The acceptance criteria of the metrics engine."""

    def test_live_equals_replay_byte_identical(self):
        memory, sink = _traced_run()
        live = snapshot_to_json(sink.snapshot())
        replayed = snapshot_to_json(aggregate_trace(memory.records).snapshot())
        assert live == replayed

    def test_same_seed_runs_are_byte_identical(self):
        _, first = _traced_run()
        _, second = _traced_run()
        assert snapshot_to_json(first.snapshot()) == snapshot_to_json(
            second.snapshot()
        )
        assert first.to_prometheus() == second.to_prometheus()

    def test_different_seed_runs_differ(self):
        _, first = _traced_run(seed=11)
        _, second = _traced_run(seed=12)
        assert snapshot_to_json(first.snapshot()) != snapshot_to_json(
            second.snapshot()
        )

    def test_window_series_recorded_per_window(self):
        memory, sink = _traced_run(windows=4)
        spans = sum(
            1 for r in memory.records if r["kind"] == "span.window"
        )
        assert spans > 0
        assert len(sink.window_snapshots) == spans
        assert [row["window"] for row in sink.window_snapshots] == list(
            range(spans)
        )
        for row in sink.window_snapshots:
            assert set(row) >= {
                "completions", "response_p50", "response_p95",
                "response_p99", "wip_total", "reward", "window",
            }

    def test_window_rows_match_a_from_scratch_recomputation(self):
        """The run-wide merged list is an optimisation only: every row
        equals re-sorting all response times seen up to that window."""
        memory, sink = _traced_run(windows=6)
        seen = []
        rows = []
        for record in memory.records:
            if record["kind"] == "event.workflow_complete":
                seen.append(record["response_time"])
            elif record["kind"] == "span.window":
                ordered = sorted(seen)
                n = len(ordered)
                rows.append({
                    "completions": n,
                    **{
                        f"response_p{int(q * 100)}":
                            ordered[min(int(q * n), n - 1)] if n else 0.0
                        for q in (0.50, 0.95, 0.99)
                    },
                })
        assert rows and rows[-1]["completions"] > 0
        assert [
            {key: row[key] for key in rows[0]}
            for row in sink.window_snapshots
        ] == rows


class TestFileOutput:
    def test_write_metrics_round_trip(self, tmp_path):
        memory, sink = _traced_run()
        target = write_metrics(tmp_path, sink)
        assert target == tmp_path / "metrics.json"
        document = json.loads(target.read_text())
        assert document["snapshot_version"] == SNAPSHOT_VERSION
        assert document["window_series"]
        prom = (tmp_path / "metrics.prom").read_text()
        assert "repro_windows_total" in prom

    def test_trace_directory_replays_live_snapshot(self, tmp_path):
        from repro.telemetry import JsonlSink

        memory, sink = _traced_run()
        with JsonlSink(tmp_path / "trace.jsonl") as jsonl:
            for record in memory.records:
                jsonl.write(record)
        replayed = aggregate_trace(load_trace(tmp_path))
        assert snapshot_to_json(replayed.snapshot()) == snapshot_to_json(
            sink.snapshot()
        )
