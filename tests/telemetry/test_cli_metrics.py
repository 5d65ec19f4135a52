"""CLI round-trips for the observability surface: ``repro trace`` writes
the run, ``repro report`` is its one reader (text tables and phase tree,
``--format json|prom``, ``--output``) — and the live-vs-replay equality
of the metrics files they write."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import PROFILE_VERSION, load_trace
from repro.telemetry.metrics import SNAPSHOT_VERSION

SEED = 5
STEPS = 3


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One short traced simulate run shared by all round-trip tests."""
    outdir = tmp_path_factory.mktemp("runs") / "trace-msd"
    code = main([
        "trace", "--dataset", "msd", "--allocator", "uniform",
        "--burst", "0", "--steps", str(STEPS), "--seed", str(SEED),
        "--output", str(outdir),
    ])
    assert code == 0
    return outdir


class TestParser:
    def test_exactly_eight_flat_verbs(self):
        parser = build_parser()
        (sub,) = parser._subparsers._group_actions
        assert list(sub.choices) == [
            "train", "evaluate", "simulate", "model-accuracy",
            "experiments", "trace", "report", "lint",
        ]
        for verb in sub.choices.values():
            assert verb._subparsers is None

    def test_report_takes_path_and_three_options(self):
        (sub,) = build_parser()._subparsers._group_actions
        assert [
            a.dest for a in sub.choices["report"]._actions if a.dest != "help"
        ] == ["path", "validate", "format", "output"]

    def test_report_defaults(self):
        args = build_parser().parse_args(["report", "runs/t"])
        assert args.path == "runs/t"
        assert args.format == "text"
        assert args.output is None
        assert not args.validate

    def test_report_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "runs/t",
                                       "--format", "xml"])


class TestTraceWritesMetrics:
    def test_trace_run_writes_metrics_files(self, run_dir):
        document = json.loads((run_dir / "metrics.json").read_text())
        assert document["snapshot_version"] == SNAPSHOT_VERSION
        assert "repro_windows_total" in document["families"]
        assert (run_dir / "metrics.prom").read_text().startswith("# HELP")

    def test_replay_reproduces_live_metrics_file(self, run_dir, tmp_path,
                                                 capsys):
        """`repro report --output` on the trace must reproduce the
        metrics.json the live run wrote, byte for byte."""
        replay_dir = tmp_path / "replay"
        code = main([
            "report", str(run_dir), "--validate",
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
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert f"{STEPS} windows" in out
        assert f"seed {SEED}" in out
        for section in ("Per-microservice utilization", "Queue depth",
                        "Container lifecycle"):
            assert section in out

    def test_json_format_matches_file(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == (run_dir / "metrics.json").read_text()

    def test_prom_format_matches_file(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert out == (run_dir / "metrics.prom").read_text()


class TestReportJson:
    def test_report_json_is_valid_and_consistent(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "json"]) == 0
        families = json.loads(capsys.readouterr().out)["families"]
        assert sum(
            s["value"] for s in families["repro_records_total"]["series"]
        ) == len(load_trace(run_dir))
        assert families["repro_windows_total"]["series"][0]["value"] == STEPS
        assert {
            s["labels"]["service"] for s in families["repro_wip"]["series"]
        } == {"Ingest", "Preprocess", "Segment", "Analyze"}

    def test_plain_report_still_prints_tables(self, run_dir, capsys):
        assert main(["report", str(run_dir / "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Per-microservice utilization" in out


class TestProfileRun:
    """``repro trace`` always installs the phase profiler."""

    def test_writes_profile_json(self, run_dir):
        document = json.loads((run_dir / "profile.json").read_text())
        assert document["profile_version"] == PROFILE_VERSION
        node = document["tree"]
        for name in (
            "eval.evaluate_allocator", "sim.env_step", "sim.run_window",
            "sim.dispatch", "telemetry.sink_write",
        ):
            node = {c["name"]: c for c in node["children"]}[name]
        assert node["calls"] > 0

    def test_profiling_is_outside_the_determinism_contract(
        self, run_dir, tmp_path
    ):
        """The same seed/config run in-process with no profiler installed
        writes the trace and metrics bytes the profiled CLI run wrote;
        only profile.json tells them apart."""
        from repro.baselines import UniformAllocator
        from repro.eval.experiments import dataset_preset, preset_env
        from repro.eval.runner import evaluate_allocator
        from repro.telemetry import (
            JsonlSink,
            MetricsSink,
            Tracer,
            write_metrics,
        )

        scenario = dataset_preset("msd")["bursts"][0]
        sink = MetricsSink(JsonlSink(tmp_path / "trace.jsonl"))
        with Tracer(sink) as tracer:
            env = preset_env(
                "msd", SEED, dict(scenario.background_rates), tracer=tracer
            )
            evaluate_allocator(UniformAllocator(), env, scenario, STEPS)
        write_metrics(tmp_path, sink)
        for name in ("trace.jsonl", "metrics.json", "metrics.prom"):
            assert (
                (tmp_path / name).read_bytes() == (run_dir / name).read_bytes()
            ), name

    def test_report_renders_saved_phase_tree(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "sim.dispatch" in out
        assert "calls" in out
