"""Command-line interface.

::

    python -m repro train --dataset msd --output runs/msd-agent
    python -m repro evaluate --agent runs/msd-agent --dataset msd --burst 0
    python -m repro simulate --dataset msd --allocator heft --burst 0
    python -m repro model-accuracy --dataset ligo
    python -m repro experiments --experiments fig5,fig6 --workers 4
    python -m repro trace --dataset msd --output runs/trace-msd
    python -m repro report runs/trace-msd --validate
    python -m repro report runs/trace-msd --format prom

``train`` runs Algorithm 2; ``evaluate`` deploys a saved agent on a paper
burst scenario; ``simulate`` runs a heuristic allocator (no learning);
``model-accuracy`` reproduces the Fig. 5 protocol; ``experiments`` maps
figure/ablation cells over worker processes with label-derived per-cell
seeds (results are byte-identical for any ``--workers``); ``trace`` reruns a
simulation or training run with telemetry and the phase profiler on,
writing a JSONL trace, a run manifest, aggregated metrics and the phase
tree; ``report`` is how such a run is read back: it loads the trace once,
folds it once, and prints the utilization, queue-depth,
container-lifecycle and training-curve tables plus the saved phase tree
(``--format json|prom`` emits the bytes of ``metrics.json`` /
``metrics.prom`` instead, ``--output DIR`` writes both files);
``lint`` runs reprolint (docs/OBSERVABILITY.md, docs/LINTING.md).
"""

from __future__ import annotations

import argparse
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
    train.add_argument("--iterations", type=int, default=None,
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
             "logical (fixed interleave schedule in-process, "
             "deterministic), or physical (collector processes); "
             "logical and physical are byte-identical for any worker "
             "count",
    )
    train.add_argument(
        "--collect-workers", type=int, default=None,
        help="collector processes for the distributed collect modes "
             "(0 = auto-detect os.cpu_count(); a pure throughput knob — "
             "never changes results)",
    )
    train.add_argument("--output", default=None,
                       help="directory to save the trained agent to")

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
        help="worker processes (0 = auto-detect os.cpu_count()); "
             "results are byte-identical for any count",
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

    trace = sub.add_parser(
        "trace",
        help="run a traced, profiled simulation/training run "
             "(trace + manifest + metrics + profile)",
    )
    _add_dataset(trace)
    trace.add_argument("--mode", choices=("simulate", "train"),
                       default="simulate")
    trace.add_argument(
        "--allocator",
        choices=("uniform", "wip", "stream", "heft", "hpa", "oracle"),
        default="uniform",
        help="allocator for --mode simulate",
    )
    trace.add_argument("--burst", type=int, default=0,
                       help="burst scenario index for --mode simulate")
    trace.add_argument("--steps", type=int, default=30,
                       help="control windows for --mode simulate")
    trace.add_argument("--iterations", type=int, default=1,
                       help="Algorithm 2 iterations for --mode train")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", required=True,
                       help="run directory for trace.jsonl + manifest.json")

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

    # `lint` forwards everything to repro.analysis (handled in main()
    # before parsing, because argparse.REMAINDER drops leading options);
    # registered here so it shows up in --help.
    sub.add_parser(
        "lint",
        help="run reprolint, the determinism static-analysis pass",
        add_help=False,
    )

    return parser


def _add_dataset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("msd", "ligo"), default="msd")


def _cmd_train(args) -> int:
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
    env = preset_env(args.dataset, args.seed)
    env_spec = EnvSpec.make(
        "repro.eval.experiments:build_training_env", dataset=args.dataset
    )
    agent = MirasAgent(env, config, seed=args.seed, env_spec=env_spec)
    agent.iterate(iterations=args.iterations, verbose=True)
    print(f"training trace: "
          f"{[round(r.eval_reward, 1) for r in agent.results]}")
    if args.output:
        path = save_agent(args.output, agent)
        print(f"agent saved to {path}")
    return 0


def _cmd_evaluate(args) -> int:
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


def _cmd_simulate(args) -> int:
    from repro.eval.experiments import dataset_preset, preset_env
    from repro.eval.runner import evaluate_allocator

    scenario = _scenario(dataset_preset(args.dataset), args.burst)
    env = preset_env(
        args.dataset, args.seed, dict(scenario.background_rates)
    )
    result = evaluate_allocator(
        _make_allocator(args.allocator), env, scenario, args.steps
    )
    _print_result(result)
    return 0


def _cmd_model_accuracy(args) -> int:
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


def _cmd_experiments(args) -> int:
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


def _cmd_trace(args) -> int:
    """Writes ``trace.jsonl``, ``manifest.json``, ``metrics.json``,
    ``metrics.prom`` and ``profile.json`` (the one artifact outside the
    determinism contract) into the run directory."""
    from pathlib import Path

    import repro
    from repro.eval import runner
    from repro.eval.experiments import dataset_preset, preset_env
    from repro.telemetry import (
        JsonlSink,
        MetricsSink,
        PhaseProfiler,
        RunManifest,
        Tracer,
        wall_time_now,
        write_manifest,
        write_metrics,
        write_profile,
    )
    from repro.telemetry.sinks import TRACE_FILENAME

    outdir = Path(args.output)
    sink = MetricsSink(JsonlSink(outdir / TRACE_FILENAME))
    preset = dataset_preset(args.dataset)
    config_snapshot = {
        "dataset": args.dataset,
        "mode": args.mode,
        "consumer_budget": preset["budget"],
        "seed": args.seed,
    }
    # The profiler wraps the layer boundaries (telemetry.profile.BOUNDARIES)
    # for the duration of the run; nothing below is told about it.
    with Tracer(sink) as tracer, PhaseProfiler() as profiler:
        if args.mode == "simulate":
            scenario = _scenario(preset, args.burst)
            config_snapshot.update(
                allocator=args.allocator, burst=args.burst, steps=args.steps
            )
            command = (
                f"trace --dataset {args.dataset} --mode simulate "
                f"--allocator {args.allocator} --burst {args.burst} "
                f"--steps {args.steps} --seed {args.seed}"
            )
            env = preset_env(
                args.dataset,
                args.seed,
                dict(scenario.background_rates),
                tracer=tracer,
            )
            # Through the module, so the installed wrapper is the one called.
            result = runner.evaluate_allocator(
                _make_allocator(args.allocator), env, scenario, args.steps
            )
            print(
                f"{result.allocator} on {result.scenario}: "
                f"aggregated reward {result.aggregated_reward():.0f}, "
                f"mean response time {result.mean_response_time():.1f} s"
            )
        else:
            from repro.core.agent import MirasAgent

            config_snapshot.update(iterations=args.iterations)
            command = (
                f"trace --dataset {args.dataset} --mode train "
                f"--iterations {args.iterations} --seed {args.seed}"
            )
            env = preset_env(args.dataset, args.seed, tracer=tracer)
            agent = MirasAgent(env, preset["fast_config"](), seed=args.seed)
            agent.iterate(iterations=args.iterations, verbose=True)
    manifest = RunManifest(
        run_name=outdir.name,
        seed=args.seed,
        config=config_snapshot,
        command=command,
        package_version=repro.__version__,
        sim_time_end=float(env.system.loop.now),
        records_written=tracer.records_written,
        counters=dict(tracer.counters),
        wall_time=wall_time_now(),
    )
    print(f"trace: {outdir / TRACE_FILENAME} "
          f"({tracer.records_written} records)")
    print(f"manifest: {write_manifest(outdir, manifest)}")
    print(f"metrics: {write_metrics(outdir, sink)}")
    print(f"profile: {write_profile(outdir, profiler)}")
    return 0


def _cmd_report(args) -> int:
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
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
