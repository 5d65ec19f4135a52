"""Command-line interface.

::

    python -m repro train --dataset msd --output runs/msd-agent
    python -m repro evaluate --agent runs/msd-agent --dataset msd --burst 0
    python -m repro simulate --dataset msd --allocator heft --burst 0
    python -m repro model-accuracy --dataset ligo
    python -m repro experiments --experiments fig5,fig6 --workers 4
    python -m repro simulate --dataset msd --telemetry runs/trace-msd
    python -m repro report runs/trace-msd --validate
    python -m repro report runs/trace-msd --format prom

``train`` runs Algorithm 2; ``evaluate`` deploys a saved agent on a paper
burst scenario; ``simulate`` runs a heuristic allocator (no learning);
``model-accuracy`` reproduces the Fig. 5 protocol; ``experiments`` maps
figure/ablation cells over worker processes with label-derived per-cell
seeds (results are byte-identical for any ``--workers``).  ``train`` and
``simulate`` take ``--telemetry DIR``: the run is traced with the phase
profiler on and writes a JSONL trace, a run manifest, aggregated metrics
and the phase tree into ``DIR`` (``experiments --telemetry`` writes one
such directory per cell); ``report`` is how such a run is read back: it
loads the trace once, folds it once, and prints the utilization,
queue-depth, container-lifecycle and training-curve tables plus the
saved phase tree (``--format json|prom`` emits the bytes of
``metrics.json`` / ``metrics.prom`` instead, ``--output DIR`` writes both
files; docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIRAS reproduction (ICDCS 2019) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a MIRAS agent (Algorithm 2)")
    _add_dataset(train)
    train.add_argument("--scale", choices=("fast", "paper"), default="fast")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--iterations", type=_count, default=None,
                       help="override the preset's iteration count")
    train.add_argument(
        "--rollout-batch", type=int, default=None,
        help="synthetic rollouts advanced together per pass (K in the "
             "vectorised rollout engine; 1 = the serial schedule)",
    )
    train.add_argument(
        "--collect-mode", choices=("serial", "logical", "physical"),
        default=None,
        help="real-environment collection topology: serial (in-loop), "
             "logical (fixed interleave schedule on zero worker "
             "processes, deterministic), or physical (the same schedule "
             "on collector processes); logical and physical are "
             "byte-identical for any worker count",
    )
    train.add_argument(
        "--collect-workers", type=int, default=None,
        help="collector worker processes for physical collection; the "
             "learner runs a share of the episodes too (0 = auto-detect "
             "os.cpu_count(); a pure throughput knob — never changes "
             "results)",
    )
    train.add_argument("--output", default=None,
                       help="directory to save the trained agent to")
    _add_telemetry(train)

    evaluate = sub.add_parser(
        "evaluate", help="deploy a saved agent on a burst scenario"
    )
    _add_dataset(evaluate)
    evaluate.add_argument("--agent", required=True,
                          help="directory written by `repro train --output`")
    evaluate.add_argument("--burst", type=int, default=0,
                          help="burst scenario index (0-2)")
    evaluate.add_argument("--steps", type=int, default=30)
    evaluate.add_argument("--seed", type=int, default=1000)

    simulate = sub.add_parser(
        "simulate", help="run a heuristic allocator on a burst (no learning)"
    )
    _add_dataset(simulate)
    simulate.add_argument(
        "--allocator",
        choices=("uniform", "wip", "stream", "heft", "hpa", "oracle"),
        default="uniform",
    )
    simulate.add_argument("--burst", type=int, default=0)
    simulate.add_argument("--steps", type=int, default=30)
    simulate.add_argument("--seed", type=int, default=1000)
    _add_telemetry(simulate)

    accuracy = sub.add_parser(
        "model-accuracy", help="Fig. 5 model-accuracy protocol"
    )
    _add_dataset(accuracy)
    accuracy.add_argument("--collect-steps", type=int, default=1200)
    accuracy.add_argument("--test-steps", type=int, default=100)
    accuracy.add_argument("--seed", type=int, default=0)

    experiments = sub.add_parser(
        "experiments",
        help="run figure/ablation experiment cells (optionally in parallel)",
    )
    experiments.add_argument(
        "--experiments", default="fig5",
        help="comma-separated experiment names (see repro.eval.parallel); "
             "e.g. fig5,fig6,fig7,fig8,ablate-refinement",
    )
    experiments.add_argument("--replicates", type=int, default=1,
                             help="cells per experiment")
    experiments.add_argument(
        "--workers", type=int, default=1,
        help="1 runs every cell in this process; W >= 2 runs W worker "
             "processes plus this one, which runs a share of the cells "
             "(0 = auto-detect os.cpu_count()); results are "
             "byte-identical for any count",
    )
    experiments.add_argument("--seed", type=int, default=0,
                             help="root seed (per-cell seeds derive from it)")
    experiments.add_argument("--quick", action="store_true",
                             help="reduced schedules (CI/smoke scale)")
    experiments.add_argument("--output", default=None,
                             help="write the results JSON to this file")
    experiments.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="capture a per-cell trace + metrics under DIR and merge "
             "them into fleet_metrics.json / fleet_manifest.json "
             "(byte-identical for any --workers)",
    )

    report = sub.add_parser(
        "report", help="read back a traced run (tables, metrics, phase tree)"
    )
    report.add_argument("path",
                        help="trace.jsonl file or run directory containing one")
    report.add_argument("--validate", action="store_true",
                        help="check every record against its schema")
    report.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="text tables, or the bytes of metrics.json / metrics.prom",
    )
    report.add_argument(
        "--output", default=None,
        help="also write metrics.json + metrics.prom into this directory",
    )

    return parser


def _count(text: str) -> int:
    """An explicit count: 0 or less is an error, not "the preset's"."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_dataset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("msd", "ligo"), default="msd")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="trace and profile the run; write trace.jsonl, manifest.json, "
             "metrics.json/.prom and profile.json into DIR",
    )


def _capture(args, argv: List[str]):
    """The run's ``capture_run`` under ``--telemetry DIR``, else a no-op
    yielding ``None`` (the untraced default)."""
    if args.telemetry is None:
        return contextlib.nullcontext()
    from repro.telemetry import capture_run

    return capture_run(
        args.telemetry, seed=args.seed, config=vars(args),
        command=" ".join(argv),
    )


def _cmd_train(args, argv) -> int:
    from dataclasses import replace

    from repro.core.agent import MirasAgent
    from repro.core.persistence import save_agent
    from repro.eval.experiments import dataset_preset, preset_env
    from repro.rl.distributed import EnvSpec

    preset = dataset_preset(args.dataset)
    config = (
        preset["paper_config"]() if args.scale == "paper"
        else preset["fast_config"]()
    )
    policy_overrides = {}
    if args.rollout_batch is not None:
        policy_overrides["rollout_batch"] = args.rollout_batch
    if args.collect_mode is not None:
        policy_overrides["collect_mode"] = args.collect_mode
    if args.collect_workers is not None:
        policy_overrides["collect_workers"] = args.collect_workers
    if policy_overrides:
        config = replace(
            config, policy=replace(config.policy, **policy_overrides)
        )
    env_spec = EnvSpec.make(
        "repro.eval.experiments:build_training_env", dataset=args.dataset
    )
    with _capture(args, argv) as tracer:
        env = preset_env(args.dataset, args.seed, tracer=tracer)
        agent = MirasAgent(env, config, seed=args.seed, env_spec=env_spec)
        agent.iterate(iterations=args.iterations, verbose=True)
        print(f"training trace: "
              f"{[round(r.eval_reward, 1) for r in agent.results]}")
        if args.output:
            path = save_agent(args.output, agent)
            print(f"agent saved to {path}")
    return 0


def _cmd_evaluate(args, argv) -> int:
    from repro.baselines.miras_alloc import MirasAllocator
    from repro.core.persistence import load_agent
    from repro.eval.experiments import dataset_preset, preset_env
    from repro.eval.runner import evaluate_allocator

    scenario = _scenario(dataset_preset(args.dataset), args.burst)
    env = preset_env(
        args.dataset, args.seed, dict(scenario.background_rates)
    )
    agent = load_agent(args.agent, env)
    result = evaluate_allocator(
        MirasAllocator(agent=agent), env, scenario, args.steps
    )
    _print_result(result)
    return 0


def _make_allocator(name: str):
    from repro.baselines.autoscaler import HpaAllocator
    from repro.baselines.drs import DrsAllocator
    from repro.baselines.heft import HeftAllocator
    from repro.baselines.oracle import OracleAllocator
    from repro.baselines.static_alloc import (
        ProportionalToWipAllocator,
        UniformAllocator,
    )

    allocators = {
        "uniform": UniformAllocator,
        "wip": ProportionalToWipAllocator,
        "stream": DrsAllocator,
        "heft": HeftAllocator,
        "hpa": HpaAllocator,
        "oracle": OracleAllocator,
    }
    return allocators[name]()


def _cmd_simulate(args, argv) -> int:
    from repro.eval import runner
    from repro.eval.experiments import dataset_preset, preset_env

    scenario = _scenario(dataset_preset(args.dataset), args.burst)
    with _capture(args, argv) as tracer:
        env = preset_env(
            args.dataset, args.seed, dict(scenario.background_rates),
            tracer=tracer,
        )
        # Through the module, so an installed profiler's wrapper is called.
        result = runner.evaluate_allocator(
            _make_allocator(args.allocator), env, scenario, args.steps
        )
    _print_result(result)
    return 0


def _cmd_model_accuracy(args, argv) -> int:
    from repro.eval.experiments import experiment_fig5_model_accuracy
    from repro.eval.reporting import format_table

    result = experiment_fig5_model_accuracy(
        args.dataset,
        collect_steps=args.collect_steps,
        test_steps=args.test_steps,
        seed=args.seed,
    )
    print(format_table(
        ["signal", "rmse fixed", "rmse iterative", "corr fixed",
         "corr iterative"],
        [
            ["reward (mean WIP)", result.rmse_fixed_reward,
             result.rmse_iterative_reward,
             result.correlation_fixed_reward(),
             result.correlation_iterative_reward()],
            ["WIP dim 0", result.rmse_fixed_w0,
             result.rmse_iterative_w0, "-", "-"],
        ],
        title=f"Model accuracy ({args.dataset}), Fig. 5 protocol",
    ))
    return 0


def _cmd_experiments(args, argv) -> int:
    from repro.eval.parallel import (
        default_cells,
        results_to_json,
        run_cells,
        write_results,
    )

    names = [n.strip() for n in args.experiments.split(",") if n.strip()]
    cells = default_cells(
        experiments=names, replicates=args.replicates, quick=args.quick
    )
    results = run_cells(
        cells,
        root_seed=args.seed,
        workers=args.workers,
        telemetry_dir=args.telemetry,
    )
    for label, payload in results.items():
        print(f"{label}: done (seed {payload['seed']})", file=sys.stderr)
    if args.telemetry:
        from repro.telemetry.fleet import FLEET_MANIFEST_FILENAME

        print(
            f"fleet telemetry merged under {args.telemetry} "
            f"({FLEET_MANIFEST_FILENAME})",
            file=sys.stderr,
        )
    if args.output:
        path = write_results(args.output, results)
        print(f"results written to {path}", file=sys.stderr)
    else:
        print(results_to_json(results), end="")
    return 0


def _cmd_report(args, argv) -> int:
    """The one reader of a finished run: load once, fold once."""
    from pathlib import Path

    from repro.telemetry import (
        aggregate_trace,
        load_trace,
        read_manifest,
        read_profile,
        render_profile,
        render_report,
        snapshot_to_json,
        write_metrics,
    )
    from repro.telemetry.manifest import MANIFEST_FILENAME
    from repro.telemetry.profile import PROFILE_FILENAME

    path = Path(args.path)
    run_dir = path if path.is_dir() else path.parent
    # The run directory is outside input: a missing or malformed file is
    # a one-line error, not a traceback.
    try:
        records = load_trace(path, validate=args.validate)
        manifest = profile = None
        if (run_dir / MANIFEST_FILENAME).exists():
            manifest = read_manifest(run_dir)
        if (run_dir / PROFILE_FILENAME).exists():
            profile = read_profile(run_dir)
    except FileNotFoundError:
        print(f"repro report: no trace.jsonl under {args.path}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    sink = aggregate_trace(records)
    if args.output:
        target = write_metrics(args.output, sink)
        print(f"metrics written to {target.parent}", file=sys.stderr)
    if args.format == "json":
        print(snapshot_to_json(sink.snapshot()), end="")
    elif args.format == "prom":
        print(sink.to_prometheus(), end="")
    else:
        title = f"Trace report: {args.path}"
        if manifest is not None:
            title += (
                f"\nrun {manifest.run_name!r}: seed {manifest.seed}, "
                f"repro {manifest.package_version}, "
                f"schema v{manifest.schema_version}, "
                f"command `repro {manifest.command}`"
            )
        print(render_report(sink.snapshot(), records, title=title))
        if profile is not None:
            print("\n" + render_profile(profile))
    return 0


def _scenario(preset, index):
    bursts = preset["bursts"]
    if not 0 <= index < len(bursts):
        raise SystemExit(
            f"burst index {index} out of range (0-{len(bursts) - 1})"
        )
    return bursts[index]


def _print_result(result) -> None:
    from repro.eval.reporting import format_series_table

    print(format_series_table(
        {
            "WIP": result.wip_series(),
            "reward": result.reward_series(),
            "resp time (s)": result.response_time_series(),
        },
        title=f"{result.allocator} on {result.scenario}",
    ))
    print(
        f"\naggregated reward: {result.aggregated_reward():.0f}   "
        f"mean response time: {result.mean_response_time():.1f} s   "
        f"completions: {result.total_completions()}"
    )


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "model-accuracy": _cmd_model_accuracy,
    "experiments": _cmd_experiments,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
