#!/usr/bin/env python3
"""Simulate a one-million-request MSD burst on the batched substrate.

The serial substrate keeps one Python object per request (61 MB per
100,000 queued workflows, injected one ``submit`` at a time).
``BatchedWorkflowSystem`` runs the same simulation — byte-identical
traces, equal metrics snapshots — on a numpy struct-of-arrays request
pool (19 MB per 100,000) with batched queue operations: the burst
below is injected as whole arrays, ten times faster, and entire windows
are replayed vectorised (see docs/SIMULATOR.md, "The vectorised window
fast path").

This example injects 1,000,000 workflow requests (3.25 million tasks)
as a single MSD burst and runs windows until the burst drains, printing
throughput and fast-path statistics.  Expect ``fast windows: 17/17,
aborts: 0`` and ``request conservation holds: True``.

Run:  PYTHONPATH=src python examples/million_request_burst.py --quick
      PYTHONPATH=src python examples/million_request_burst.py
"""

import argparse
import time

from repro.sim import BatchedWorkflowSystem, SystemConfig
from repro.workflows import build_msd_ensemble

# Allocations are weighted toward the upstream services (Ingest,
# Preprocess), where the burst lands.
FULL = dict(
    consumer_budget=8192,
    window_length=240.0,
    max_windows=40,
    burst={"Type1": 500_000, "Type2": 250_000, "Type3": 250_000},
    allocation=[2800, 2800, 1800, 792],
)
QUICK = dict(
    consumer_budget=256,
    window_length=60.0,
    max_windows=12,
    burst={"Type1": 2_000, "Type2": 1_000, "Type3": 1_000},
    allocation=[88, 88, 56, 24],
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="4,000-request smoke run instead of the full million",
    )
    args = parser.parse_args()
    scale = QUICK if args.quick else FULL

    ensemble = build_msd_ensemble()
    system = BatchedWorkflowSystem(
        ensemble,
        SystemConfig(
            consumer_budget=scale["consumer_budget"],
            window_length=scale["window_length"],
        ),
        seed=0,
    )
    system.apply_allocation(scale["allocation"])

    total = sum(scale["burst"].values())
    print(f"injecting {total:,} workflow requests "
          f"({scale['consumer_budget']} consumers) ...")
    system.inject_burst(scale["burst"])

    start = time.perf_counter()
    windows = 0
    while (system.invoker.completed_total < total
           and windows < scale["max_windows"]):
        system.run_window()
        windows += 1
    elapsed = time.perf_counter() - start

    tasks = sum(ms.tasks_completed for ms in system.microservices.values())
    print(f"completed {system.invoker.completed_total:,}/{total:,} workflows "
          f"({tasks:,} tasks) in {elapsed:.1f}s over {windows} windows")
    print(f"throughput: {tasks / elapsed:,.0f} tasks/s")
    print(f"fast windows: {system.fast_windows}/{windows}, "
          f"aborts: {system.fast_aborts} "
          f"(reasons: {dict(sorted(system.fast_abort_reasons.items()))})")
    for name, ms in system.microservices.items():
        print(f"  {name:<12} completed {ms.tasks_completed:>9,}  "
              f"queue depth {len(ms.fifo):>9,}")
    print(f"request conservation holds: {system.conservation_ok()}")


if __name__ == "__main__":
    main()
