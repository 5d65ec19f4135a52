"""Prometheus 0.0.4 exposition conformance tests.

The exposition text is consumed verbatim by real scrapers (and by the
``--serve`` endpoint), so the encoding details are contract: label
escaping order, zero-observation histograms, cumulative ``le`` bucket
monotonicity up to +Inf, and the format's trailing newline.
"""

import json
import re

from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import _escape_label


class TestLabelEscaping:
    def test_backslash_quote_and_newline(self):
        # Escaping order matters: backslash first, or the escapes added
        # for quote/newline would themselves be re-escaped.
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label('a"b') == 'a\\"b'
        assert _escape_label("a\nb") == "a\\nb"
        assert _escape_label('\\"\n') == '\\\\\\"\\n'

    def test_exposition_round_trip_of_hostile_label(self):
        registry = MetricsRegistry()
        hostile = 'pre\\mid"post\nend'
        registry.counter("c_total", labels=("svc",)).labels(hostile).inc()
        text = registry.to_prometheus()
        (line,) = [l for l in text.splitlines() if l.startswith("c_total{")]
        value = re.search(r'svc="((?:[^"\\]|\\.)*)"', line).group(1)
        assert value == _escape_label(hostile)
        assert "\n" not in line  # the record stays one exposition line


class TestZeroObservationHistograms:
    def test_all_buckets_zero_sum_zero_count_zero(self):
        registry = MetricsRegistry()
        family = registry.histogram("h_seconds", (1.0, 5.0), labels=("q",))
        family.labels("empty")  # instantiated, never observed
        text = registry.to_prometheus()
        assert 'h_seconds_bucket{q="empty",le="1"} 0' in text
        assert 'h_seconds_bucket{q="empty",le="5"} 0' in text
        assert 'h_seconds_bucket{q="empty",le="+Inf"} 0' in text
        assert 'h_seconds_sum{q="empty"} 0' in text
        assert 'h_seconds_count{q="empty"} 0' in text

    def test_zero_observation_quantiles_are_zero(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", (1.0,)).labels()
        assert hist.quantile(0.99) == 0.0
        assert hist.state()["p50"] == 0.0


class TestBucketMonotonicity:
    def _bucket_counts(self, text, name):
        """(le, count) pairs in exposition order for one series."""
        out = []
        for line in text.splitlines():
            match = re.match(
                rf'{name}_bucket\{{le="([^"]+)"\}} (\d+)', line
            )
            if match:
                out.append((match.group(1), int(match.group(2))))
        return out

    def test_cumulative_le_counts_nondecreasing_through_inf(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", (1.0, 2.0, 5.0, 10.0))
        hist = family.labels()
        for value in (0.5, 0.5, 1.5, 3.0, 7.0, 50.0, 50.0):
            hist.observe(value)
        pairs = self._bucket_counts(registry.to_prometheus(), "lat")
        assert [le for le, _ in pairs] == ["1", "2", "5", "10", "+Inf"]
        counts = [count for _, count in pairs]
        assert counts == sorted(counts)
        assert counts == [2, 3, 4, 5, 7]
        assert counts[-1] == hist.count

    def test_boundary_value_lands_in_its_le_bucket(self):
        """le is inclusive: an observation equal to a bound counts in
        that bound's bucket."""
        registry = MetricsRegistry()
        hist = registry.histogram("b", (1.0, 2.0)).labels()
        hist.observe(1.0)
        pairs = self._bucket_counts(registry.to_prometheus(), "b")
        assert pairs == [("1", 1), ("2", 1), ("+Inf", 1)]


class TestTrailingNewline:
    def test_exposition_text_ends_with_single_newline(self):
        registry = MetricsRegistry()
        registry.counter("c_total").labels().inc()
        text = registry.to_prometheus()
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_cli_prom_output_ends_with_single_newline(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        records = [
            {"kind": "event.arrival", "t": 1.0, "workflow": "Type1",
             "request_id": 0},
            {"kind": "event.workflow_complete", "t": 9.0,
             "workflow": "Type1", "request_id": 0, "response_time": 8.0},
        ]
        trace.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        assert main(["report", str(tmp_path), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and not out.endswith("\n\n")
        assert "repro_response_time_seconds_bucket" in out
