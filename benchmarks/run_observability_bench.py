#!/usr/bin/env python3
"""Observability overhead benchmark + regression gate.

Measures the observability subsystem's costs on the loaded MSD system
and writes ``BENCH_observability.json`` at the repository root:

- ``noop_overhead_pct`` — the **estimated** cost of the disabled
  telemetry path, computed machine-independently as::

      sites_per_window * disabled_guard_ns / window_ns * 100

  where ``sites_per_window`` is counted from an enabled run (each
  instrumentation site evaluates exactly one ``if tracer.enabled:``
  guard per record it would emit) and both timings come from the same
  process/machine, so the ratio transfers across hardware in a way raw
  throughput numbers do not.
- ``aggregation_over_emission`` — what folding a record into the live
  aggregates costs, in units of what emitting it into a ``MemorySink``
  costs: ``(traced_metrics_tee - traced_memory) / (traced_memory -
  untraced)``.  Both terms are telemetry's own work, so the ratio moves
  neither with the host nor with the simulator's speed.  (Until the
  exact-tier event kernel halved the window, the gate was
  ``aggregation_overhead_pct <= 50``: tee over memory, whose
  denominator is mostly simulator.  50 % of that window was 2.06x the
  emission cost; the budget below is the same allowance, restated.)
- enabled-path overheads against the untraced run — each percentage
  with the microseconds per window it stands for, because the window
  they divide by is the simulator's to shrink — and the offline
  aggregation throughput, reported informationally.

``--check`` exits non-zero when ``noop_overhead_pct`` exceeds the 2%
budget, or ``aggregation_over_emission`` the 2.0x budget, that
docs/OBSERVABILITY.md promises — this is the CI gate.

Run:  PYTHONPATH=src python benchmarks/run_observability_bench.py --check
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry import (
    MemorySink,
    MetricsSink,
    NULL_TRACER,
    PhaseProfiler,
    Tracer,
    aggregate_trace,
)
from repro.workflows import build_msd_ensemble
from repro.workload import PoissonArrivalProcess
from repro.workload.bursts import MSD_BACKGROUND_RATES

#: The documented ceiling for the disabled path (docs/OBSERVABILITY.md).
BUDGET_PCT = 2.0

#: The documented ceiling for live aggregation: folding a record may
#: cost at most this many times what emitting it into memory costs.
AGGREGATION_BUDGET_RATIO = 2.0

ARTIFACT = "BENCH_observability.json"

GUARD_LOOP = 20_000

#: Default best-of count: enough that every configuration's minimum comes
#: from a quiet phase of the host (on the 2-core sizing host 20 repeats
#: spread the gated aggregation ratio over 37-48 %, 50 over 36-40 %).
REPEATS = 50


def _loaded_system(tracer=None):
    system = MicroserviceWorkflowSystem(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=14),
        seed=0,
        tracer=tracer,
    )
    PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    system.inject_burst({"Type1": 200, "Type2": 100, "Type3": 100})
    system.apply_allocation([4, 4, 3, 3])
    return system


def _time_windows(windows: int, **system_kwargs) -> float:
    """Seconds for ``windows`` windows of a fresh system."""
    system = _loaded_system(**system_kwargs)
    start = time.perf_counter()
    for _ in range(windows):
        system.run_window()
    return time.perf_counter() - start


def _guard_ns(obj) -> float:
    """Per-evaluation nanoseconds of ``if obj.enabled:`` in a tight loop."""
    start = time.perf_counter()
    hits = 0
    for _ in range(GUARD_LOOP):
        if obj.enabled:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 0
    return elapsed / GUARD_LOOP * 1e9


def run_benchmark(windows: int, repeats: int) -> dict:
    # Count instrumentation sites executed per window from an enabled run:
    # every emit site writes exactly one record when enabled, and would
    # evaluate exactly one guard when disabled.  (The profiler has no
    # disabled site: uninstalled, nothing of it is in the program.)
    counting_sink = MemorySink()
    counted = _loaded_system(tracer=Tracer(counting_sink))
    for _ in range(windows):
        counted.run_window()
    records = list(counting_sink.records)
    sites_per_window = len(records) / windows

    # The three gated configurations and the guard are timed in turn,
    # round after round and with fresh sinks each time, so a slow phase
    # of the host lands on every side of the ratios below.  (The guard
    # used to be timed once, afterwards: 19 ns x 488 sites is 1.5 % of
    # today's 0.63 ms window, and one reading from a slow phase -- 27 ns
    # was seen -- crossed the 2 % budget on its own.)
    baseline_s = traced_s = metrics_s = profiled_s = float("inf")
    guard_ns = float("inf")
    for _ in range(repeats):
        guard_ns = min(guard_ns, _guard_ns(NULL_TRACER))
        baseline_s = min(baseline_s, _time_windows(windows))
        traced_s = min(traced_s, _time_windows(
            windows, tracer=Tracer(MemorySink())
        ))
        metrics_s = min(metrics_s, _time_windows(
            windows, tracer=Tracer(MetricsSink(MemorySink()))
        ))
    # The profiled configuration (informational) afterwards, under one
    # install: wrapping and restoring class attributes every round would
    # reset the interpreter's per-type caches under the gated timings.
    with PhaseProfiler():
        for _ in range(repeats):
            profiled_s = min(profiled_s, _time_windows(
                windows, tracer=Tracer(MemorySink())
            ))
    window_ns = baseline_s / windows * 1e9

    noop_overhead_pct = sites_per_window * guard_ns / window_ns * 100.0

    aggregation_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        aggregate_trace(records)
        aggregation_s = min(aggregation_s, time.perf_counter() - start)

    return {
        "artifact_version": 1,
        "budget_pct": BUDGET_PCT,
        "noop_overhead_pct": noop_overhead_pct,
        "disabled_guard_ns": {"tracer": guard_ns},
        "noop_overhead_us_per_window": sites_per_window * guard_ns / 1e3,
        "sites_per_window": sites_per_window,
        "window_seconds": {
            "untraced": baseline_s / windows,
            "traced_memory": traced_s / windows,
            "traced_metrics_tee": metrics_s / windows,
            "traced_profiled": profiled_s / windows,
        },
        "aggregation_budget_ratio": AGGREGATION_BUDGET_RATIO,
        "aggregation_over_emission": (
            (metrics_s - traced_s) / (traced_s - baseline_s)
        ),
        "aggregation_overhead_pct": (metrics_s / traced_s - 1.0) * 100.0,
        "aggregation_us_per_window": (metrics_s - traced_s) / windows * 1e6,
        "enabled_overhead_pct": {
            "traced_memory": (traced_s / baseline_s - 1.0) * 100.0,
            "traced_metrics_tee": (metrics_s / baseline_s - 1.0) * 100.0,
            "traced_profiled": (profiled_s / baseline_s - 1.0) * 100.0,
        },
        "enabled_overhead_us_per_window": {
            "traced_memory": (traced_s - baseline_s) / windows * 1e6,
            "traced_metrics_tee": (metrics_s - baseline_s) / windows * 1e6,
            "traced_profiled": (profiled_s - baseline_s) / windows * 1e6,
        },
        "aggregation": {
            "records": len(records),
            "records_per_second": len(records) / aggregation_s
            if aggregation_s > 0 else None,
        },
        "workload": {
            "dataset": "msd",
            "windows": windows,
            "repeats": repeats,
            "burst": {"Type1": 200, "Type2": 100, "Type3": 100},
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=5,
                        help="control windows per measurement")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help="repetitions per configuration (best-of)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / ARTIFACT),
        help="where to write the JSON artifact",
    )
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the no-op or the aggregation "
                             "overhead exceeds its budget")
    args = parser.parse_args(argv)

    result = run_benchmark(args.windows, args.repeats)
    Path(args.output).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"wrote {args.output}")
    print(f"instrumentation sites/window: {result['sites_per_window']:.0f}")
    print(f"disabled guard: tracer "
          f"{result['disabled_guard_ns']['tracer']:.1f} ns")
    untraced_us = result["window_seconds"]["untraced"] * 1e6
    print(f"untraced window: {untraced_us:.0f} us")
    print(f"estimated no-op overhead: "
          f"{result['noop_overhead_pct']:.3f}% = "
          f"{result['noop_overhead_us_per_window']:.1f} us/window "
          f"(budget {BUDGET_PCT}%)")
    for name, pct in result["enabled_overhead_pct"].items():
        extra_us = result["enabled_overhead_us_per_window"][name]
        print(f"enabled overhead [{name}]: {pct:+.1f}% = "
              f"{extra_us:+.0f} us/window")
    print(f"aggregation: {result['aggregation_over_emission']:.2f}x the "
          f"emission cost (budget {AGGREGATION_BUDGET_RATIO}x) = "
          f"{result['aggregation_us_per_window']:+.0f} us/window = "
          f"{result['aggregation_overhead_pct']:+.1f}% on a memory-sink "
          f"trace")
    rps = result["aggregation"]["records_per_second"]
    if rps:
        print(f"aggregation throughput: {rps:,.0f} records/s")

    failures = [
        f"FAIL: {name} {result[name]:.3f} exceeds the budget of {budget}"
        for name, budget in (
            ("noop_overhead_pct", BUDGET_PCT),
            ("aggregation_over_emission", AGGREGATION_BUDGET_RATIO),
        )
        if args.check and result[name] > budget
    ]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
