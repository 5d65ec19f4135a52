"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "msd"
        assert args.scale == "fast"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "hpc"])

    def test_iterations_below_one_rejected(self, capsys):
        """``--iterations 0`` used to train the preset's count."""
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--iterations", "0"])
        assert exit_info.value.code == 2
        assert "--iterations: must be >= 1" in capsys.readouterr().err

    def test_simulate_allocator_choices(self):
        args = build_parser().parse_args(
            ["simulate", "--allocator", "heft", "--burst", "1"]
        )
        assert args.allocator == "heft"
        assert args.burst == 1


class TestSimulateCommand:
    def test_uniform_on_msd(self, capsys):
        code = main(
            ["simulate", "--dataset", "msd", "--allocator", "uniform",
             "--steps", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "uniform on msd-burst1" in out
        assert "aggregated reward" in out

    def test_stream_on_ligo(self, capsys):
        code = main(
            ["simulate", "--dataset", "ligo", "--allocator", "stream",
             "--steps", "4", "--burst", "2"]
        )
        assert code == 0
        assert "ligo-burst3" in capsys.readouterr().out

    def test_burst_out_of_range(self):
        with pytest.raises(SystemExit, match="out of range"):
            main(["simulate", "--burst", "9"])


class TestModelAccuracyCommand:
    def test_runs_small(self, capsys):
        code = main(
            ["model-accuracy", "--dataset", "msd", "--collect-steps", "60",
             "--test-steps", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Model accuracy (msd)" in out
        assert "rmse" in out


class TestTrainEvaluateRoundtrip:
    def test_train_save_then_evaluate(self, tmp_path, capsys, monkeypatch):
        # Shrink the fast preset so the CLI test stays quick.
        from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
        from repro.eval.experiments import dataset_preset
        from repro.rl.ddpg import DDPGConfig

        tiny = MirasConfig(
            model=ModelConfig(hidden_sizes=(8,), epochs=3),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
                rollout_length=5,
                rollouts_per_iteration=2,
                patience=2,
            ),
            steps_per_iteration=20,
            reset_interval=10,
            iterations=1,
            eval_steps=3,
        )
        # `repro train` reads the preset table, which holds the bound
        # method itself: patching MirasConfig.msd_fast would not reach it.
        monkeypatch.setitem(dataset_preset("msd"), "fast_config", lambda: tiny)

        agent_dir = tmp_path / "agent"
        code = main(["train", "--dataset", "msd", "--output", str(agent_dir)])
        assert code == 0
        assert (agent_dir / "config.json").exists()
        assert json.loads((agent_dir / "results.json").read_text())

        trace_dir = tmp_path / "trace"
        code = main(
            ["simulate", "--agent", str(agent_dir), "--dataset", "msd",
             "--steps", "3", "--telemetry", str(trace_dir)]
        )
        assert code == 0
        assert "miras on msd-burst1" in capsys.readouterr().out
        assert (trace_dir / "trace.jsonl").stat().st_size > 0
        assert main(["report", str(trace_dir), "--validate"]) == 0
