"""CLI round-trips for the observability surface: ``repro metrics``,
``repro profile run`` / ``repro profile report``, ``repro report --json``
— and the live-vs-replay equality of the metrics files they write."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import PROFILE_VERSION, load_trace
from repro.telemetry.metrics import SNAPSHOT_VERSION


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One short traced simulate run shared by all round-trip tests."""
    outdir = tmp_path_factory.mktemp("runs") / "trace-msd"
    code = main([
        "trace", "--dataset", "msd", "--allocator", "uniform",
        "--burst", "0", "--steps", "3", "--seed", "5",
        "--output", str(outdir),
    ])
    assert code == 0
    return outdir


class TestParser:
    def test_metrics_defaults(self):
        args = build_parser().parse_args(["metrics", "runs/t"])
        assert args.path == "runs/t"
        assert args.format == "text"
        assert args.output is None
        assert not args.validate

    def test_metrics_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "runs/t",
                                       "--format", "xml"])

    def test_profile_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])

    def test_profile_run_takes_trace_options(self):
        args = build_parser().parse_args([
            "profile", "run", "--dataset", "msd", "--output", "runs/p",
        ])
        assert args.profile_command == "run"
        assert args.mode == "simulate"

    def test_profile_report_takes_max_depth(self):
        args = build_parser().parse_args([
            "profile", "report", "runs/p", "--max-depth", "2",
        ])
        assert args.profile_command == "report"
        assert args.max_depth == 2

    def test_report_json_flag(self):
        args = build_parser().parse_args(["report", "runs/t", "--json"])
        assert args.json


class TestTraceWritesMetrics:
    def test_trace_run_writes_metrics_files(self, run_dir):
        document = json.loads((run_dir / "metrics.json").read_text())
        assert document["snapshot_version"] == SNAPSHOT_VERSION
        assert "repro_windows_total" in document["families"]
        assert (run_dir / "metrics.prom").read_text().startswith("# HELP")

    def test_replay_reproduces_live_metrics_file(self, run_dir, tmp_path,
                                                 capsys):
        """`repro metrics --output` on the trace must reproduce the
        metrics.json the live run wrote, byte for byte."""
        replay_dir = tmp_path / "replay"
        code = main([
            "metrics", str(run_dir), "--validate",
            "--output", str(replay_dir),
        ])
        assert code == 0
        capsys.readouterr()
        assert (
            (replay_dir / "metrics.json").read_bytes()
            == (run_dir / "metrics.json").read_bytes()
        )
        assert (
            (replay_dir / "metrics.prom").read_bytes()
            == (run_dir / "metrics.prom").read_bytes()
        )


class TestMetricsFormats:
    def test_text_format(self, run_dir, capsys):
        assert main(["metrics", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "repro_windows_total (counter)" in out

    def test_json_format_matches_file(self, run_dir, capsys):
        assert main(["metrics", str(run_dir), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == (run_dir / "metrics.json").read_text()

    def test_prom_format_matches_file(self, run_dir, capsys):
        assert main(["metrics", str(run_dir), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert out == (run_dir / "metrics.prom").read_text()


class TestReportJson:
    def test_report_json_is_valid_and_consistent(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        records = load_trace(run_dir)
        assert document["records"] == len(records)
        assert document["windows"] > 0
        assert document["sim_time_end"] > 0
        assert set(document["utilization"]) == {
            "Ingest", "Preprocess", "Segment", "Analyze",
        }

    def test_plain_report_still_prints_tables(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Per-microservice utilization" in out


class TestProfileRun:
    @pytest.fixture(scope="class")
    def profiled_dir(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("runs") / "prof-msd"
        code = main([
            "profile", "run", "--dataset", "msd", "--burst", "0",
            "--steps", "3", "--seed", "5", "--output", str(outdir),
        ])
        assert code == 0
        return outdir

    def test_writes_profile_json(self, profiled_dir):
        document = json.loads((profiled_dir / "profile.json").read_text())
        assert document["profile_version"] == PROFILE_VERSION
        node = document["tree"]
        for name in (
            "eval.evaluate_allocator", "sim.env_step", "sim.run_window",
            "sim.dispatch", "telemetry.sink_write",
        ):
            node = {c["name"]: c for c in node["children"]}[name]
        assert node["calls"] > 0

    def test_profiling_is_outside_the_determinism_contract(
        self, profiled_dir, run_dir
    ):
        """Same seed/config with the profiler on: identical trace and
        metrics bytes; only profile.json differs between the runs."""
        assert (
            (profiled_dir / "trace.jsonl").read_bytes()
            == (run_dir / "trace.jsonl").read_bytes()
        )
        assert (
            (profiled_dir / "metrics.json").read_bytes()
            == (run_dir / "metrics.json").read_bytes()
        )
        assert not (run_dir / "profile.json").exists()

    def test_profile_report_renders_saved_tree(self, profiled_dir, capsys):
        assert main(["profile", "report", str(profiled_dir)]) == 0
        out = capsys.readouterr().out
        assert "sim.dispatch" in out
        assert "calls" in out

    def test_profile_report_max_depth(self, profiled_dir, capsys):
        assert main([
            "profile", "report", str(profiled_dir), "--max-depth", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "eval.evaluate_allocator" in out
        assert "sim.dispatch" not in out
