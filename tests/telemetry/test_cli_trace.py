"""CLI round-trip: ``repro trace`` writes a run directory that
``repro report`` can summarize."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import load_trace, read_manifest
from repro.telemetry.records import SCHEMA_VERSION


class TestParser:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "--output", "runs/t"])
        assert args.dataset == "msd"
        assert args.mode == "simulate"
        assert args.allocator == "uniform"
        assert args.burst == 0
        assert args.seed == 0

    def test_trace_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_report_takes_path_and_validate(self):
        args = build_parser().parse_args(["report", "runs/t", "--validate"])
        assert args.path == "runs/t"
        assert args.validate


class TestTraceReportRoundTrip:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("runs") / "trace-msd"
        code = main([
            "trace", "--dataset", "msd", "--allocator", "heft",
            "--burst", "0", "--steps", "3", "--seed", "1000",
            "--output", str(outdir),
        ])
        assert code == 0
        return outdir

    def test_trace_writes_jsonl_and_manifest(self, run_dir):
        records = load_trace(run_dir, validate=True)
        assert records
        manifest = read_manifest(run_dir)
        assert manifest.run_name == "trace-msd"
        assert manifest.seed == 1000
        assert manifest.records_written == len(records)
        assert manifest.config["allocator"] == "heft"
        assert manifest.sim_time_end > 0
        assert manifest.wall_time is not None
        assert "--seed 1000" in manifest.command

    def test_manifest_is_valid_json_with_sorted_keys(self, run_dir):
        raw = (run_dir / "manifest.json").read_text()
        data = json.loads(raw)
        assert list(data) == sorted(data)

    def test_report_summarizes_the_run(self, run_dir, capsys):
        code = main(["report", str(run_dir), "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-microservice utilization" in out
        assert "Queue depth" in out
        assert "Container lifecycle" in out
        assert "seed 1000" in out
        assert f"schema v{SCHEMA_VERSION}" in out

    def test_report_accepts_explicit_file_path(self, run_dir, capsys):
        code = main(["report", str(run_dir / "trace.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-microservice utilization" in out

    def test_report_missing_trace_fails(self, tmp_path, capsys):
        """Outside input: exit 2 and one line on stderr, no traceback —
        for a missing path and for a directory without a trace."""
        for path in (tmp_path / "nope", tmp_path):
            assert main(["report", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"repro report: no trace.jsonl under {path}\n"
            )

    @pytest.mark.parametrize("content,flags,message", [
        ('{"kind":"metric"}\nnot json\n', [],
         "trace.jsonl:2: invalid JSON"),
        ('{"kind":"event.nope","t":0}\n', ["--validate"],
         "trace.jsonl:1: unknown record kind 'event.nope'"),
        ('\n{"kind":"event.publish","t":0,"queue":"Ingest"}\n',
         ["--validate"], "trace.jsonl:2: event.publish record payload"),
    ], ids=["malformed-line", "unknown-kind", "schema-violation"])
    def test_report_bad_trace_is_a_one_line_error(
        self, tmp_path, capsys, content, flags, message
    ):
        (tmp_path / "trace.jsonl").write_text(content)
        assert main(["report", str(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro report: {tmp_path}")
        assert message in captured.err
        assert captured.err.count("\n") == 1


class TestTraceTrainMode(object):
    def test_train_mode_emits_training_curves(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
        from repro.rl.ddpg import DDPGConfig

        def tiny_config(cls):
            return MirasConfig(
                model=ModelConfig(hidden_sizes=(8,), epochs=2),
                policy=PolicyConfig(
                    ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
                    rollout_length=4,
                    rollouts_per_iteration=2,
                    patience=2,
                ),
                steps_per_iteration=15,
                reset_interval=10,
                iterations=1,
                eval_steps=2,
            )

        monkeypatch.setattr(MirasConfig, "msd_fast", classmethod(tiny_config))
        outdir = tmp_path / "trace-train"
        code = main([
            "trace", "--dataset", "msd", "--mode", "train",
            "--iterations", "1", "--seed", "0", "--output", str(outdir),
        ])
        assert code == 0
        records = load_trace(outdir, validate=True)
        names = {r["name"] for r in records if r["kind"] == "metric"}
        assert "model/epoch_loss" in names
        assert "train/eval_reward" in names
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0
        assert "Training curves" in capsys.readouterr().out
