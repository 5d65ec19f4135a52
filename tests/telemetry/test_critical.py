"""Critical-path analyzer tests: chain reconstruction, the exact-sum
invariant, bottleneck rollups, and replay determinism."""

import json
import math

from repro.sim.faults import crash_one_consumer
from repro.telemetry import (
    MemorySink,
    Tracer,
    analyze_run,
    analyze_trace,
    critical_report_json,
    render_critical,
)
from repro.telemetry.critical import _reconcile

from tests.telemetry.test_instrumentation import drive, traced_system


def traced_records(seed=3, windows=4):
    sink = MemorySink()
    system = traced_system(Tracer(sink), seed=seed)
    drive(system, windows=windows)
    return sink.records


class TestExactSumInvariant:
    def test_stage_attributions_sum_bitwise_to_makespan(self):
        """The tentpole invariant: per request, stage durations fsum
        exactly — bitwise — to the measured end-to-end response time."""
        report = analyze_trace(traced_records())
        assert report.requests, "run completed no workflows"
        for request in report.requests:
            assert request.total() == request.makespan, (
                request.request_id,
                request.total().hex(),
                request.makespan.hex(),
            )
        assert report.exact_sum_ok()

    def test_invariant_holds_across_seeds(self):
        for seed in (0, 7, 41):
            report = analyze_trace(traced_records(seed=seed))
            assert report.exact_sum_ok(), seed

    def test_invariant_survives_fault_retries(self):
        """Crash-driven redeliveries route wait time through the retry
        stage without breaking the sum."""
        sink = MemorySink()
        system = traced_system(Tracer(sink), seed=5)
        system.inject_burst({"Type3": 12})
        system.apply_allocation([4, 4, 3, 3])
        system.run_window()
        crash_one_consumer(system.microservices["Segment"])
        for _ in range(4):
            system.run_window()
        report = analyze_trace(sink.records)
        assert report.requests
        assert report.exact_sum_ok()


class TestReconcile:
    def test_empty_and_exact_inputs_pass_through(self):
        assert _reconcile([], 0.0) == []
        durations = [1.0, 2.0, 3.0]
        assert _reconcile(durations, math.fsum(durations)) == durations

    def test_one_ulp_residual_is_absorbed(self):
        durations = [0.1] * 10
        makespan = math.nextafter(math.fsum(durations), math.inf)
        out = _reconcile(durations, makespan)
        assert math.fsum(out) == makespan

    def test_argument_is_left_unchanged(self):
        durations = [0.1] * 10
        makespan = math.nextafter(math.fsum(durations), math.inf)
        out = _reconcile(durations, makespan)
        assert out != durations
        assert durations == [0.1] * 10

    def test_residual_below_largest_ulp_is_absorbed(self):
        """The round-to-even tie case: a residual smaller than the
        largest element's ulp must still reach bitwise equality."""
        durations = [
            0.8963571236148482,
            1.2579605549086352,
            3.119517088027207,
            23.405432825018018,
        ]
        makespan = math.nextafter(math.fsum(durations), -math.inf)
        out = _reconcile(durations, makespan)
        assert math.fsum(out) == makespan


class TestChains:
    def test_every_completion_is_attributed(self):
        records = traced_records()
        completions = [
            r for r in records if r["kind"] == "event.workflow_complete"
        ]
        report = analyze_trace(records)
        assert len(report.requests) == len(completions)

    def test_chains_resolve_exactly(self):
        """Exact-timestamp trigger matching covers every request in an
        ordinary run — no join fallbacks."""
        report = analyze_trace(traced_records())
        assert all(r.exact_chain for r in report.requests)
        assert all(r.hops >= 1 for r in report.requests)

    def test_stage_durations_are_nonnegative(self):
        report = analyze_trace(traced_records())
        for request in report.requests:
            for stage in request.stages:
                # The reconcile fold may perturb one duration by ulps,
                # never by more.
                assert stage.duration > -1e-9

    def test_spanless_trace_falls_back_to_join(self):
        """Pre-v3 traces (no event.task_span) still satisfy the sum
        invariant via a single whole-makespan join stage."""
        records = [
            r for r in traced_records() if r["kind"] != "event.task_span"
        ]
        report = analyze_trace(records)
        assert report.requests
        assert report.exact_sum_ok()
        for request in report.requests:
            assert not request.exact_chain
            assert [s.stage for s in request.stages] == ["join"]


class TestRollups:
    def test_bottlenecks_ranked_and_shares_sum_to_one(self):
        report = analyze_trace(traced_records())
        rows = report.bottlenecks(top_k=10_000)
        totals = [row["total_seconds"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        assert math.fsum(row["share"] for row in rows) == 1.0
        for row in rows:
            assert row["requests"] >= 1

    def test_stage_totals_cover_all_attributed_time(self):
        report = analyze_trace(traced_records())
        totals = report.stage_totals()
        grand = math.fsum(totals.values())
        makespans = math.fsum(r.makespan for r in report.requests)
        assert abs(grand - makespans) < 1e-6

    def test_render_mentions_invariant(self):
        text = render_critical(analyze_trace(traced_records()))
        assert "exact-sum invariant: ok" in text


class TestDeterminism:
    def test_live_and_replayed_reports_byte_identical(self, tmp_path):
        """A trace written to disk and re-read yields the identical
        canonical report document."""
        records = traced_records(seed=9)
        trace = tmp_path / "trace.jsonl"
        with trace.open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        live = critical_report_json(analyze_trace(records))
        replayed = critical_report_json(analyze_run(trace))
        assert live == replayed

    def test_report_json_is_canonical(self):
        report = analyze_trace(traced_records())
        document = critical_report_json(report)
        assert document.endswith("\n")
        parsed = json.loads(document)
        assert parsed["critical_version"] == 1
        assert parsed["exact_sum_ok"] is True
        again = json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ) + "\n"
        assert again == document
