#!/usr/bin/env python3
"""A tour of the telemetry subsystem (docs/OBSERVABILITY.md).

Runs the MSD system with tracing on — a burst, a consumer crash, and one
tiny iteration of Algorithm 2 — then reads the trace back and renders the
same report the ``repro report`` CLI prints:

- ``trace.jsonl``: one JSON record per line (arrivals, queue publishes,
  container lifecycle, fault injections, window spans, training metrics),
  all timestamped with the *simulation* clock, so a rerun with the same
  seed produces an identical trace,
- ``manifest.json``: the run's provenance (seed, config snapshot,
  package/schema versions, counters, wall time),
- ``metrics.json`` / ``metrics.prom`` and ``profile.json``: the live
  metrics fold and the phase tree.

All five files come from ``repro.telemetry.capture_run``, the same
context manager behind ``repro simulate|train --telemetry DIR``.

Run:  python examples/tracing_tour.py
"""

import tempfile
from pathlib import Path

from repro.core import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.rl.ddpg import DDPGConfig
from repro.sim import MicroserviceEnv, MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry import (
    RunManifest,
    aggregate_trace,
    capture_run,
    load_trace,
    read_manifest,
    render_report,
    snapshot_to_json,
)
from repro.workflows import build_msd_ensemble
from repro.workload import MSD_BACKGROUND_RATES, PoissonArrivalProcess

#: A deliberately tiny Algorithm 2 config: enough to emit every training
#: metric (model/epoch_loss, train/eval_reward, ddpg/*, ...) in seconds.
TINY_CONFIG = MirasConfig(
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


def run_traced(outdir: Path, seed: int = 7) -> RunManifest:
    """One traced MSD run: burst + fault + tiny training; returns manifest."""
    # capture_run yields a tracer whose MetricsSink tees every record into
    # the streaming aggregation engine on its way to trace.jsonl.  The
    # sink is closed on exit, even if the run raises; on success the
    # manifest, metrics and phase profile are written next to the trace.
    with capture_run(
        outdir,
        seed=seed,
        config={"dataset": "msd", "consumer_budget": 14},
        command="examples/tracing_tour.py",
    ) as tracer:
        system = MicroserviceWorkflowSystem(
            build_msd_ensemble(),
            SystemConfig(consumer_budget=14),
            seed=seed,
            tracer=tracer,
        )
        PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)

        # A hand-driven burst with a mid-flight container crash: watch
        # for event.fault and event.redeliver records in the trace.
        system.inject_burst({"Type3": 20})
        system.apply_allocation([4, 4, 3, 3])
        system.run_window()
        system.microservices["Preprocess"].crash_one()
        system.run_window()

        # One tiny Algorithm 2 iteration on the same (traced) system:
        # the agent inherits the system's tracer, so model losses, DDPG
        # losses, parameter-noise sigma and eval rewards land in the
        # same trace.
        agent = MirasAgent(MicroserviceEnv(system), TINY_CONFIG, seed=seed)
        agent.iterate()

    # Live aggregates vs. offline replay of the trace we just wrote:
    # identical by construction (same records, same aggregator code).
    replayed = snapshot_to_json(
        aggregate_trace(load_trace(outdir)).snapshot()
    )
    live = (outdir / "metrics.json").read_text(encoding="utf-8")
    assert live == replayed, "live and replayed metrics diverged"
    return read_manifest(outdir)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "tracing-tour"
        manifest = run_traced(outdir)

        records = load_trace(outdir, validate=True)
        print(f"wrote {manifest.records_written} records to "
              f"{outdir / 'trace.jsonl'}")
        kinds = {}
        for record in records:
            kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        print("record kinds: "
              + ", ".join(f"{k}={n}" for k, n in sorted(kinds.items())))
        faults = [r for r in records if r["kind"] == "event.fault"]
        print(f"fault injections: "
              f"{[(r['fault'], r['target']) for r in faults]}")

        # One fold (aggregate_trace) feeds every table of the report;
        # the records themselves only supply the training curves.
        print()
        print(render_report(
            aggregate_trace(records).snapshot(), records,
            title="Tracing tour (MSD, seed 7)",
        ))

        # The manifest read back describes the trace it sits next to.
        print(f"\nmanifest round-trip ok: "
              f"{manifest.records_written == len(records)}")


if __name__ == "__main__":
    main()
