"""Additional CLI coverage: every simulate allocator, LIGO paths."""

import pytest

from repro.cli import main


class TestSimulateAllAllocators:
    @pytest.mark.parametrize(
        "allocator", ["uniform", "wip", "stream", "heft", "hpa", "oracle"]
    )
    def test_allocator_runs_on_msd(self, allocator, capsys):
        code = main(
            ["simulate", "--dataset", "msd", "--allocator", allocator,
             "--steps", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        display = {"wip": "wip-proportional"}.get(allocator, allocator)
        assert f"{display} on msd-burst1" in out
        assert "completions" in out

    def test_each_burst_selectable(self, capsys):
        for burst in (0, 1, 2):
            code = main(
                ["simulate", "--dataset", "msd", "--burst", str(burst),
                 "--steps", "2"]
            )
            assert code == 0
        out = capsys.readouterr().out
        for name in ("msd-burst1", "msd-burst2", "msd-burst3"):
            assert name in out


class TestModelAccuracyLigo:
    def test_ligo_runs_small(self, capsys):
        code = main(
            ["model-accuracy", "--dataset", "ligo", "--collect-steps", "60",
             "--test-steps", "10"]
        )
        assert code == 0
        assert "Model accuracy (ligo)" in capsys.readouterr().out


class TestParserDetails:
    def test_train_iterations_override(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["train", "--iterations", "2"])
        assert args.iterations == 2

    def test_agent_excludes_allocator(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--agent", "runs/agent", "--allocator", "uniform"]
            )
