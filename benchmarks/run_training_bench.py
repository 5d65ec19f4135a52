#!/usr/bin/env python3
"""Training-path throughput benchmark + regression gate.

Measures the two perf-opt paths of the synthetic-rollout engine and
writes ``BENCH_training.json`` at the repository root:

- ``rollout.speedup`` — synthetic-rollout transitions/second of the
  batched engine (``BatchedModelEnv`` + ``act_batch`` + ``add_batch``
  at K=``--rollout-batch``) over one rollout at a time (the same
  ``BatchedModelEnv`` at K=1 with per-step ``act``/``store``: the
  work ``repro train`` does at the default ``rollout_batch=1``).  Both
  paths run the same trained refined model and the same number of
  transitions; the ratio is the machine-independent quantity the CI
  gate checks (>= 3x).
- ``parallel`` — experiment cells/second of the serial in-process
  runner vs ``run_cells`` with worker processes, on quick fig5 cells,
  plus a byte-equality check of the two results JSONs.  On a one-core
  machine the pool is expected to be *slower* (spawn overhead, no
  parallelism); the numbers are reported honestly and the gate only
  requires byte-identical output.
- ``distributed`` — real-environment collection steps/second of the
  deterministic logical interleave (1 worker) vs the physical process
  pool (``--collect-workers`` workers), on the same episode plan, plus
  byte-equality checks: logical N-worker vs logical 1-worker, and
  physical vs logical.  The >= 2x speedup gate is enforced only when
  ``os.cpu_count() >= 4`` (a one-core container cannot exhibit process
  parallelism; equality is still gated everywhere).  It also counts
  the ``run_window`` calls one logical pass makes — an exact count —
  as ``windows_simulated`` / ``windows_per_collected_step``: every
  episode runs on a fresh replica whose reset is free, so collecting a
  step should cost one simulated window.

``--check`` exits non-zero when the batched speedup falls below 3x,
the parallel runner's JSON differs from the serial runner's, the
distributed merges are not byte-identical, collection simulates more
than 1.1 windows per collected step, or (on >= 4-core hosts) physical
collection is below the 2x floor.

Run:  PYTHONPATH=src python benchmarks/run_training_bench.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.refinement import RefinedModel
from repro.eval.parallel import (
    ExperimentCell,
    results_to_json,
    run_cells,
)
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.rl.distributed import (
    DistributedCollector,
    EnvSpec,
    episode_plan,
    policy_payload,
)
from repro.sim.env import allocation_from_simplex
from repro.sim.system import MicroserviceWorkflowSystem
from repro.utils.rng import RngStream

#: Gate: batched rollout generation must be at least this much faster.
SPEEDUP_FLOOR = 3.0

#: Gate: physical multi-worker collection must be at least this much
#: faster than single-worker logical collection — enforced only on
#: hosts with >= DISTRIBUTED_MIN_CPUS cores (a one-core container has
#: no parallelism to measure; byte-equality is still gated there).
DISTRIBUTED_SPEEDUP_FLOOR = 2.0
DISTRIBUTED_MIN_CPUS = 4

#: Gate: simulated windows per collected step (an exact count).  Resets
#: on fresh episode replicas are free, so the expected value is 1.0.
WINDOWS_PER_STEP_CEILING = 1.1

ARTIFACT = "BENCH_training.json"

STATE_DIM = 4
ACTION_DIM = 4
BUDGET = 14

#: Quick fig5 schedule for the parallel-runner comparison (same values
#: as repro.eval.parallel.QUICK_PARAMS, pinned here so the benchmark's
#: workload can't drift when CI schedules change).
FIG5_FAST = {
    "collect_steps": 24,
    "test_steps": 8,
    "action_hold": 2,
    "model_epochs": 2,
}


def _trained_refined_model(seed: int = 0):
    """A trained EnvironmentModel wrapped in Algorithm 1, plus its data."""
    data_rng = RngStream("bench-data", np.random.SeedSequence(seed))
    dataset = TransitionDataset(STATE_DIM, ACTION_DIM)
    for _ in range(400):
        state = data_rng.uniform(0.0, 30.0, size=STATE_DIM)
        action = data_rng.uniform(0.0, BUDGET / ACTION_DIM, size=ACTION_DIM)
        next_state = np.maximum(
            state - action + data_rng.normal(0.0, 0.5, size=STATE_DIM), 0.0
        )
        dataset.add(state, action, next_state)
    model = EnvironmentModel(
        STATE_DIM,
        ACTION_DIM,
        rng=RngStream("bench-model", np.random.SeedSequence(seed + 1)),
    )
    model.fit(dataset, epochs=5, batch_size=64)
    refined = RefinedModel.from_dataset(
        model,
        dataset,
        rng=RngStream("bench-refine", np.random.SeedSequence(seed + 2)),
    )
    return refined, dataset


def _ddpg(seed: int = 0) -> DDPGAgent:
    return DDPGAgent(
        STATE_DIM,
        ACTION_DIM,
        config=DDPGConfig(hidden_sizes=(32, 32), batch_size=32),
        rng=RngStream("bench-ddpg", np.random.SeedSequence(seed)),
    )


def _rollout_env(rollout_length: int, batch: int) -> BatchedModelEnv:
    refined, dataset = _trained_refined_model()
    return BatchedModelEnv(
        refined,
        dataset,
        consumer_budget=BUDGET,
        rollout_length=rollout_length,
        batch_size=batch,
        rng=RngStream("bench-env", np.random.SeedSequence(9)),
    )


def _time_serial_rollouts(transitions: int, rollout_length: int) -> float:
    agent = _ddpg()
    env = _rollout_env(rollout_length, batch=1)
    generated = 0
    start = time.perf_counter()
    while generated < transitions:
        state = env.reset()[0]
        agent.refresh_perturbation()
        done = False
        while not done:
            simplex = agent.act(state, explore=True)
            executed = allocation_from_simplex(simplex[np.newaxis], BUDGET)
            next_states, rewards, done = env.step(executed)
            agent.store(
                state, executed[0] / BUDGET, rewards[0], next_states[0]
            )
            state = next_states[0]
            generated += 1
    return time.perf_counter() - start


def _time_batched_rollouts(
    transitions: int, rollout_length: int, batch: int
) -> float:
    agent = _ddpg()
    env = _rollout_env(rollout_length, batch)
    generated = 0
    start = time.perf_counter()
    while generated < transitions:
        states = env.reset()
        agent.refresh_perturbation()
        done = False
        while not done:
            simplexes = agent.act_batch(states, explore=True)
            executed = allocation_from_simplex(simplexes, BUDGET)
            next_states, rewards, done = env.step(executed)
            agent.store_batch(states, executed / BUDGET, rewards, next_states)
            states = next_states
            generated += batch
    return time.perf_counter() - start


def _bench_rollouts(transitions: int, rollout_length: int, batch: int,
                    repeats: int) -> dict:
    serial_s = min(
        _time_serial_rollouts(transitions, rollout_length)
        for _ in range(repeats)
    )
    batched_s = min(
        _time_batched_rollouts(transitions, rollout_length, batch)
        for _ in range(repeats)
    )
    return {
        "transitions": transitions,
        "rollout_length": rollout_length,
        "rollout_batch": batch,
        "serial_steps_per_second": transitions / serial_s,
        "batched_steps_per_second": transitions / batched_s,
        "speedup": serial_s / batched_s,
        "speedup_floor": SPEEDUP_FLOOR,
    }


def _bench_parallel(cells: int, workers: int, repeats: int) -> dict:
    grid = [
        ExperimentCell.make("fig5", rep, FIG5_FAST) for rep in range(cells)
    ]
    serial_s = float("inf")
    parallel_s = float("inf")
    serial_json = parallel_json = None
    for _ in range(repeats):
        start = time.perf_counter()
        serial = run_cells(grid, root_seed=0, workers=1)
        serial_s = min(serial_s, time.perf_counter() - start)
        serial_json = results_to_json(serial)

        start = time.perf_counter()
        parallel = run_cells(grid, root_seed=0, workers=workers)
        parallel_s = min(parallel_s, time.perf_counter() - start)
        parallel_json = results_to_json(parallel)
    return {
        "cells": cells,
        "workers": workers,
        "serial_cells_per_second": cells / serial_s,
        "parallel_cells_per_second": cells / parallel_s,
        "parallel_matches_serial": parallel_json == serial_json,
        "cpu_count": os.cpu_count(),
        "note": (
            "sub-second cells: this block witnesses worker-count invariance "
            "(parallel_matches_serial), not speed-up; spawn and pickling "
            "dominate the parallel rate"
        ),
    }


def _blocks_equal(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.episode, x.lane, x.steps) != (y.episode, y.lane, y.steps):
            return False
        for field in ("states", "executed", "rewards", "next_states"):
            if not np.array_equal(getattr(x, field), getattr(y, field)):
                return False
        if x.episode_return != y.episode_return:
            return False
        if x.sim_time_end != y.sim_time_end:
            return False
    return True


def _count_windows(run):
    """``run()``'s result and the ``run_window`` calls this process made."""
    run_window = MicroserviceWorkflowSystem.run_window
    windows = 0

    def counting_run_window(system):
        nonlocal windows
        windows += 1
        return run_window(system)

    MicroserviceWorkflowSystem.run_window = counting_run_window
    try:
        result = run()
    finally:
        MicroserviceWorkflowSystem.run_window = run_window
    return result, windows


def _bench_distributed(steps: int, workers: int, repeats: int) -> dict:
    spec = EnvSpec.make(
        "repro.eval.experiments:build_training_env", dataset="msd"
    )
    payload = policy_payload(_ddpg())
    plan = episode_plan(steps, 25, lanes=4, root_seed=0)

    def collect(mode, n):
        collector = DistributedCollector(spec, workers=n, mode=mode)
        start = time.perf_counter()
        blocks = collector.collect(payload, plan, random_fraction=0.5)
        return time.perf_counter() - start, blocks

    logical_s = float("inf")
    physical_s = float("inf")
    logical_blocks = logical_n_blocks = physical_blocks = None
    for _ in range(repeats):
        elapsed, logical_blocks = collect("logical", 1)
        logical_s = min(logical_s, elapsed)
        # The untimed in-process pass doubles as the window count.
        (_, logical_n_blocks), windows = _count_windows(
            lambda: collect("logical", workers)
        )
        elapsed, physical_blocks = collect("physical", workers)
        physical_s = min(physical_s, elapsed)

    cpu_count = os.cpu_count() or 1
    return {
        "collect_steps": steps,
        "episodes": len(plan),
        "workers": workers,
        "logical_steps_per_second": steps / logical_s,
        "physical_steps_per_second": steps / physical_s,
        "windows_simulated": windows,
        "windows_per_collected_step": windows / steps,
        "windows_per_step_ceiling": WINDOWS_PER_STEP_CEILING,
        "speedup": logical_s / physical_s,
        "speedup_floor": DISTRIBUTED_SPEEDUP_FLOOR,
        "gate_enforced": cpu_count >= DISTRIBUTED_MIN_CPUS,
        "logical_match": _blocks_equal(logical_blocks, logical_n_blocks),
        "physical_matches_logical": _blocks_equal(
            logical_blocks, physical_blocks
        ),
        "cpu_count": cpu_count,
    }


def run_benchmark(transitions: int, rollout_length: int, batch: int,
                  cells: int, workers: int, repeats: int,
                  collect_steps: int, collect_workers: int) -> dict:
    return {
        "artifact_version": 2,
        "rollout": _bench_rollouts(
            transitions, rollout_length, batch, repeats
        ),
        "parallel": _bench_parallel(cells, workers, repeats),
        "distributed": _bench_distributed(
            collect_steps, collect_workers, repeats
        ),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transitions", type=int, default=800,
                        help="synthetic transitions per rollout measurement")
    parser.add_argument("--rollout-length", type=int, default=25,
                        help="steps per synthetic episode")
    parser.add_argument("--rollout-batch", type=int, default=16,
                        help="K for the batched engine")
    parser.add_argument("--cells", type=int, default=2,
                        help="quick fig5 cells for the parallel comparison")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the parallel comparison")
    parser.add_argument("--collect-steps", type=int, default=200,
                        help="real-environment steps for the distributed "
                             "collection comparison")
    parser.add_argument("--collect-workers", type=int, default=4,
                        help="physical worker processes for the distributed "
                             "collection comparison")
    parser.add_argument("--repeats", type=int, default=2,
                        help="repetitions per configuration (best-of)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / ARTIFACT),
        help="where to write the JSON artifact",
    )
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on speedup/equality gate failure")
    args = parser.parse_args(argv)

    result = run_benchmark(
        args.transitions, args.rollout_length, args.rollout_batch,
        args.cells, args.workers, args.repeats,
        args.collect_steps, args.collect_workers,
    )
    Path(args.output).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    rollout = result["rollout"]
    parallel = result["parallel"]
    distributed = result["distributed"]
    print(f"wrote {args.output}")
    print(
        f"rollout generation: serial "
        f"{rollout['serial_steps_per_second']:,.0f} steps/s, batched "
        f"(K={rollout['rollout_batch']}) "
        f"{rollout['batched_steps_per_second']:,.0f} steps/s "
        f"-> {rollout['speedup']:.1f}x (floor {SPEEDUP_FLOOR}x)"
    )
    print(
        f"experiment cells: serial "
        f"{parallel['serial_cells_per_second']:.2f} cells/s, "
        f"{parallel['workers']} workers "
        f"{parallel['parallel_cells_per_second']:.2f} cells/s "
        f"({parallel['cpu_count']} cpu), outputs "
        + ("match" if parallel["parallel_matches_serial"] else "DIFFER")
    )
    gate_note = (
        "enforced" if distributed["gate_enforced"]
        else f"not enforced, < {DISTRIBUTED_MIN_CPUS} cpus"
    )
    print(
        f"distributed collection: logical "
        f"{distributed['logical_steps_per_second']:,.0f} steps/s, physical "
        f"({distributed['workers']} workers) "
        f"{distributed['physical_steps_per_second']:,.0f} steps/s "
        f"-> {distributed['speedup']:.2f}x "
        f"(floor {DISTRIBUTED_SPEEDUP_FLOOR}x, {gate_note}), merges "
        + ("match" if distributed["logical_match"]
           and distributed["physical_matches_logical"] else "DIFFER")
        + f", {distributed['windows_simulated']} windows simulated for "
        f"{distributed['collect_steps']} steps "
        f"({distributed['windows_per_collected_step']:.2f} per step, "
        f"ceiling {WINDOWS_PER_STEP_CEILING})"
    )

    failures = []
    if rollout["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"batched speedup {rollout['speedup']:.2f}x is below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    if not parallel["parallel_matches_serial"]:
        failures.append("parallel runner output differs from serial runner")
    if not distributed["logical_match"]:
        failures.append(
            "logical multi-worker merge differs from single-worker merge"
        )
    if not distributed["physical_matches_logical"]:
        failures.append(
            "physical collection differs from the logical interleave"
        )
    if distributed["windows_per_collected_step"] > WINDOWS_PER_STEP_CEILING:
        failures.append(
            f"collection simulates "
            f"{distributed['windows_per_collected_step']:.2f} windows per "
            f"collected step, above the {WINDOWS_PER_STEP_CEILING} ceiling"
        )
    if (
        distributed["gate_enforced"]
        and distributed["speedup"] < DISTRIBUTED_SPEEDUP_FLOOR
    ):
        failures.append(
            f"distributed speedup {distributed['speedup']:.2f}x is below "
            f"the {DISTRIBUTED_SPEEDUP_FLOOR}x floor"
        )
    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
