#!/usr/bin/env python3
"""Observability overhead benchmark + regression gate.

Measures the observability subsystem's costs on the loaded MSD system
and writes ``BENCH_observability.json`` at the repository root:

- ``noop_overhead_pct`` — the **estimated** cost of the disabled
  telemetry path, computed machine-independently as::

      sites_per_window * disabled_guard_ns / window_ns * 100

  where ``sites_per_window`` is counted from the windows of an enabled
  run (each instrumentation site evaluates exactly one
  ``if tracer.enabled:`` guard per record it would emit) and both
  timings come from the same process/machine, so the ratio transfers
  across hardware in a way raw throughput numbers do not.  The count
  leaves out the records the setup writes (``count_sites``).  It used to
  include them, 828 records spread over five windows, and read 487 sites
  per window where a disabled window evaluates 322 guards.
- ``enabled_overhead_pct.traced_metrics_tee`` — what a user who leaves
  the program's own configuration on, ``Tracer(MetricsSink(MemorySink()))``,
  pays per window over the untraced run.  This is the **gated** enabled
  cost.  (Until PR 24 the gate was ``aggregation_over_emission <= 2.0``,
  the fold's cost in units of the emission's: a ratio of two of
  telemetry's own costs, which rose from 1.39x to 1.7x on a change that
  made *both* cheaper, because the denominator fell faster.)  Ceiling
  and measurement: on the 2-core sizing host the per-record fold of the
  parent read +139 % (committed artifact) and +130 % (re-run); with the
  per-window fold eighteen quiet runs (six of this script, twelve of its
  timing loop alone) spread +79 % ... +95 % around the committed +89 %,
  and three runs inside one noisy minute read +55 %, +119 %, +142 %.  ``TEE_BUDGET_PCT`` = 115 sits 20 points above
  the quiet spread and 15 below the parent.
- the same cost split in two, per window and **per record** —
  ``emission_us_per_record`` (memory-sink trace over untraced) and
  ``aggregation_us_per_record`` (tee over memory-sink) — plus the
  profiled configuration and the offline aggregation throughput,
  reported informationally.  Each percentage comes with the
  microseconds it stands for, because the window they divide by is the
  simulator's to shrink.

``--check`` exits non-zero when ``noop_overhead_pct`` exceeds the 2%
budget, or ``enabled_overhead_pct.traced_metrics_tee`` the 115% ceiling,
that docs/OBSERVABILITY.md promises — this is the CI gate.

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

#: The documented ceiling for the enabled path a user leaves on: a
#: window under ``Tracer(MetricsSink(MemorySink()))`` may cost at most
#: this much more than the untraced window (module docstring: how it
#: was set).
TEE_BUDGET_PCT = 115.0

ARTIFACT = "BENCH_observability.json"

GUARD_LOOP = 20_000

#: Default best-of count: enough that every configuration's minimum comes
#: from a quiet phase of the host (the module docstring has the spread of
#: the gated tee overhead at this count).
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


def count_sites(windows: int):
    """Records an enabled run writes: ``(in the windows, in all)``.

    Every emit site writes exactly one record when enabled, and would
    evaluate exactly one guard when disabled, so the first count over
    ``windows`` is the guards a timed window evaluates.  The setup's
    records (the burst's arrivals and publishes, the first allocation's
    starts) are not: :func:`_time_windows` starts its clock after the
    setup.  (The profiler has no disabled site: uninstalled, nothing of
    it is in the program.)
    """
    sink = MemorySink()
    system = _loaded_system(tracer=Tracer(sink))
    setup_records = len(sink.records)
    for _ in range(windows):
        system.run_window()
    return len(sink.records) - setup_records, list(sink.records)


def run_benchmark(windows: int, repeats: int) -> dict:
    window_records, records = count_sites(windows)
    sites_per_window = window_records / windows

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
        "tee_budget_pct": TEE_BUDGET_PCT,
        "emission_us_per_window": (traced_s - baseline_s) / windows * 1e6,
        "emission_us_per_record": (traced_s - baseline_s) / window_records * 1e6,
        # The tee folds the setup's records too, at the first window's end.
        "aggregation_us_per_window": (metrics_s - traced_s) / windows * 1e6,
        "aggregation_us_per_record": (metrics_s - traced_s) / len(records) * 1e6,
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
                        help="exit 1 if the no-op or the metrics-tee "
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
        budget = f" (budget +{TEE_BUDGET_PCT:.0f}%)" * (
            name == "traced_metrics_tee"
        )
        print(f"enabled overhead [{name}]: {pct:+.1f}% = "
              f"{extra_us:+.0f} us/window{budget}")
    print(f"of which emission: "
          f"{result['emission_us_per_window']:+.0f} us/window = "
          f"{result['emission_us_per_record']:.2f} us/record; aggregation: "
          f"{result['aggregation_us_per_window']:+.0f} us/window = "
          f"{result['aggregation_us_per_record']:.2f} us/record")
    rps = result["aggregation"]["records_per_second"]
    if rps:
        print(f"aggregation throughput: {rps:,.0f} records/s")

    gated = (
        ("noop_overhead_pct", result["noop_overhead_pct"], BUDGET_PCT),
        ("enabled_overhead_pct.traced_metrics_tee",
         result["enabled_overhead_pct"]["traced_metrics_tee"],
         TEE_BUDGET_PCT),
    )
    failures = [
        f"FAIL: {name} {value:.3f} exceeds the budget of {budget}"
        for name, value, budget in gated
        if args.check and value > budget
    ]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
