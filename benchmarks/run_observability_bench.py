#!/usr/bin/env python3
"""Observability overhead benchmark + regression gate.

Measures the observability subsystem's costs on the loaded MSD system
and, given ``--output PATH``, writes them there as JSON (CI passes the
committed artifact's name, ``BENCH_observability.json``).  Both
gates are stated as what a user pays per unit telemetry controls, not as
a share of the untraced window: the window is the simulator's to shrink,
and a fixed cost divided by a shrinking window fails a percentage gate
with no telemetry code changed.

- ``noop_ns_per_site`` — the **gated** cost of the disabled telemetry
  path: one ``if tracer.enabled:`` guard, timed in a tight loop.  A
  disabled window pays it once per instrumentation site; the sites a
  timed window evaluates are counted from the windows of an enabled run
  (``count_sites``; each site writes exactly one record when enabled,
  and ``tests/telemetry/test_noop_sites.py`` pins that count to the
  guard reads of a disabled run).
- ``noop_overhead_us_per_window`` — sites per window times that cost,
  **gated** too: a change that adds instrumentation sites raises what a
  disabled window pays at an unchanged cost per site.  It is also
  reported, informationally, as ``noop_overhead_pct`` of the untraced
  window.
- ``tee_us_per_record`` — the **gated** cost of the enabled path a user
  leaves on, ``Tracer(MetricsSink(MemorySink()))``: emission per record
  (memory-sink trace over untraced, per record of the timed windows)
  plus aggregation per record (tee over memory-sink trace, per record
  folded: the tee folds the setup's records at the first window's end).
  The per-window costs and the percentages of the untraced window are
  reported next to it, informationally, with the profiled configuration
  and the offline aggregation throughput.

Ceilings (``NOOP_NS_PER_SITE``, ``NOOP_US_PER_WINDOW``,
``TEE_US_PER_RECORD``): ten runs of this script on the 2-vCPU sizing
host, after schema v5 dropped ``event.task_complete`` (222 sites per
window, was 322), read the guard at 17.7-20.1 ns and the tee at
1.24-1.42 us per record (0.66-0.75 emission plus 0.56-0.69
aggregation); each of those two ceilings sits about a quarter above the
slowest of the ten.  The window ceiling is the site ceiling times the
222 sites, rounded down: 5.5 us, against 3.9-4.5 us read.

``--check`` exits non-zero when any reading exceeds its ceiling — this
is the CI gate.

Run:  PYTHONPATH=src python benchmarks/run_observability_bench.py --check \
          [--output BENCH_observability.json]
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

#: Gate on the disabled path: ns one instrumentation site costs when
#: telemetry is off (module docstring: how it was set).
NOOP_NS_PER_SITE = 25.0

#: Gate on the disabled path per window: the sites a window evaluates
#: times what each costs, so a change that adds sites shows here.
NOOP_US_PER_WINDOW = 5.5

#: Gate on the enabled path a user leaves on: us the metrics tee costs
#: per record, emission plus aggregation (module docstring: how it was
#: set).
TEE_US_PER_RECORD = 1.8

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
    # of the host lands on every side of the differences below.  (The
    # guard used to be timed once, afterwards: one reading from a slow
    # phase, 27 ns, crossed the then 2 % budget on its own.)
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
    noop_us_per_window = sites_per_window * guard_ns / 1e3
    emission_us_per_record = (traced_s - baseline_s) / window_records * 1e6
    # The tee folds the setup's records too, at the first window's end.
    aggregation_us_per_record = (metrics_s - traced_s) / len(records) * 1e6

    aggregation_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        aggregate_trace(records)
        aggregation_s = min(aggregation_s, time.perf_counter() - start)

    return {
        "artifact_version": 2,
        "noop_ns_per_site": guard_ns,
        "noop_ns_per_site_ceiling": NOOP_NS_PER_SITE,
        "tee_us_per_record": emission_us_per_record + aggregation_us_per_record,
        "tee_us_per_record_ceiling": TEE_US_PER_RECORD,
        "noop_overhead_us_per_window": noop_us_per_window,
        "noop_overhead_us_per_window_ceiling": NOOP_US_PER_WINDOW,
        "noop_overhead_pct": noop_us_per_window / (baseline_s / windows * 1e6) * 100.0,
        "sites_per_window": sites_per_window,
        "window_seconds": {
            "untraced": baseline_s / windows,
            "traced_memory": traced_s / windows,
            "traced_metrics_tee": metrics_s / windows,
            "traced_profiled": profiled_s / windows,
        },
        "emission_us_per_window": (traced_s - baseline_s) / windows * 1e6,
        "emission_us_per_record": emission_us_per_record,
        "aggregation_us_per_window": (metrics_s - traced_s) / windows * 1e6,
        "aggregation_us_per_record": aggregation_us_per_record,
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
        "--output", metavar="PATH",
        help=f"write the JSON artifact here (e.g. {ARTIFACT}); "
             f"without it nothing is written",
    )
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the no-op cost per site or per "
                             "window, or the metrics-tee cost per record, "
                             "exceeds its ceiling")
    args = parser.parse_args(argv)

    result = run_benchmark(args.windows, args.repeats)
    if args.output:
        Path(args.output).write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.output}")
    print(f"instrumentation sites/window: {result['sites_per_window']:.0f}")
    print(f"no-op cost: {result['noop_ns_per_site']:.1f} ns/site "
          f"(ceiling {NOOP_NS_PER_SITE} ns) = "
          f"{result['noop_overhead_us_per_window']:.1f} us/window "
          f"(ceiling {NOOP_US_PER_WINDOW} us)")
    print(f"metrics tee: {result['tee_us_per_record']:.2f} us/record "
          f"(ceiling {TEE_US_PER_RECORD} us) = emission "
          f"{result['emission_us_per_record']:.2f} + aggregation "
          f"{result['aggregation_us_per_record']:.2f}")
    untraced_us = result["window_seconds"]["untraced"] * 1e6
    print(f"untraced window: {untraced_us:.0f} us; no-op "
          f"{result['noop_overhead_pct']:.2f}% of it")
    for name, pct in result["enabled_overhead_pct"].items():
        extra_us = result["enabled_overhead_us_per_window"][name]
        print(f"enabled overhead [{name}]: {pct:+.1f}% = "
              f"{extra_us:+.0f} us/window")
    rps = result["aggregation"]["records_per_second"]
    if rps:
        print(f"aggregation throughput: {rps:,.0f} records/s")

    gated = (
        ("noop_ns_per_site", NOOP_NS_PER_SITE),
        ("noop_overhead_us_per_window", NOOP_US_PER_WINDOW),
        ("tee_us_per_record", TEE_US_PER_RECORD),
    )
    failures = [
        f"FAIL: {name} {result[name]:.3f} exceeds the ceiling of {ceiling}"
        for name, ceiling in gated
        if args.check and result[name] > ceiling
    ]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
