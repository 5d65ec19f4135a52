"""End-to-end + per-layer benchmark of the MIRAS reproduction.

One command runs a workload through the program's public API, checks its
outputs, and prints every metric by name with its unit::

    python3 benchmarks/e2e/run.py --workload sim_paper --seed 7        # one
    python3 benchmarks/e2e/run.py --seed 7 --runs 3 --output A.json    # all six
    python3 benchmarks/e2e/run.py --quick                              # smoke
    python3 benchmarks/e2e/run.py --compare A.json B.json              # verdicts

With ``--workload`` the last line of standard output is the one JSON
object BENCHMARK.json's contract names (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

**Steadiness.**  The sizing host runs everything 1.3-1.8x slower for
seconds to minutes at a time, so a raw reading of a pass moves by more
than any useful regression bound, and so does the best of several.  The
harness therefore measures the host's speed while it measures the
program (hostspeed.py: a ~70 us reference kernel at the probe's ticks,
off the clock) and reports end-to-end timings as **seconds at reference
speed**.  A run makes *identical* passes (same seed, same work, same
simulated results -- which is also checked) for ``--seconds`` seconds;
identical passes tick at the same program points (see ``Probe``), so
each tick-to-tick interval has one corrected reading per pass, and a
pass's time is the sum of every interval's lower-tercile reading
(``steady_sum``).  ``--seconds`` sets the number of passes, never the
work of a pass, so every count and simulated statistic depends on the
seed alone.  Per-layer timings (``--trace 1``) are raw seconds.
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import os  # noqa: E402

# Pin BLAS before numpy loads: timings measure the program, not a thread
# pool's scheduling.
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmark needs the program under {REPO_ROOT / 'src'}")
for _path in (str(REPO_ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import compare  # noqa: E402
import layers  # noqa: E402
from hostspeed import slowdown_now  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKERS, WORKLOADS, Probe  # noqa: E402

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"
#: The contract's run length (BENCHMARK.json's ``run_seconds``).
NOMINAL_SECONDS = 14
#: A run makes at least this many passes, however short ``--seconds``.
MIN_REPEATS = 2
#: Fresh-process set-ups timed per run (this process is the first).
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "windows_per_s": "1/s",
}


# --- estimators ------------------------------------------------------------
def percentile(values, q):
    """Nearest-rank percentile; 0.0 unless >= 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = int(q * len(ordered))
    if len(ordered) - rank < 10:
        return 0.0
    return ordered[rank]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PINS},
        "mp_start_method": multiprocessing.get_start_method(),
        "pool_width": WORKERS,
        "loadavg_at_start": list(os.getloadavg()),
    }


# --- one workload ----------------------------------------------------------
def set_up(workload, seed: int, size: dict) -> float:
    """Imports + construction + one warm-up window/forward, since process
    start, at reference speed.  Only meaningful as the first thing a
    process does."""
    workload.warm(seed, size)
    elapsed = perf_counter() - _PROCESS_START
    return elapsed / slowdown_now()


def probe_setups(name: str, seed: int, quick: bool, count: int):
    """Time ``count`` more set-ups, each in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               name, "--seed", str(seed)] + (["--quick"] if quick else [])  # fmt: skip
    samples = []
    for _ in range(count):
        done = subprocess.run(
            command, capture_output=True, text=True, check=True, timeout=120
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(workload, seed, size, out_dir, recorder=None, reference=True) -> Probe:
    gc.collect()
    probe = Probe(recorder, reference)
    workload.run(seed, size, probe, out_dir)
    if recorder is None:
        probe.settle()
    return probe


def merged_checks(probes) -> dict:
    """Every pass's own checks, conservation included, AND-ed together."""
    checks = {}
    for probe in probes:
        for name, ok in probe.checks.items():
            checks[name] = ok and checks.get(name, True)
    return checks


def output_checks(workload, seed, size, probes) -> dict:
    """Per-pass checks plus those that need all repeats or an oracle run."""
    checks = merged_checks(probes)
    fingerprints = [
        (p.attempted, p.windows, len(p.ticks), p.stats, p.counts) for p in probes
    ]
    checks["repeats_identical"] = all(f == fingerprints[0] for f in fingerprints)
    if workload.oracle:
        checks.update(workload.oracle(seed, size, probes))
    return checks


def steady_sum(rows) -> float:
    """Sum over positions of each position's lower-tercile reading among
    the passes.  The reference correction takes out the host's slow
    phases; what is left are stalls of a few milliseconds that hit one
    pass's interval and not another's, and they only ever add time --
    hence a low quantile, and not the minimum because the correction's
    own error can also subtract."""
    if len({len(row) for row in rows}) != 1:  # passes differ: a failed check
        return float(np.median([np.sum(row) for row in rows]))
    return float(np.quantile(np.asarray(rows), 1 / 3, axis=0).sum())


def end_to_end(probes, setup_s: float) -> dict:
    """One pass at reference speed, from all the run's identical passes."""
    wall, cpu, children = zip(*(p.reference_speed() for p in probes))
    wall_s = steady_sum(wall)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": steady_sum(cpu) + steady_sum(children),
        "peak_rss_mb": peak_rss_mb(),
        "windows_per_s": probes[0].windows / wall_s,
    }


def per_layer(workload, seed, size, out_dir, untraced: Probe):
    """One traced pass: spans from the harness's wrappers, counts from the
    program; raw host seconds, like the untraced pass it is compared
    with.  Returns the metrics and the traced pass's probe."""
    recorder = SpanRecorder()
    extra = {}
    with recorder:
        captured = layers.install(recorder)
        probe = run_pass(workload, seed, size, out_dir, recorder, reference=False)
        if workload.trace_more:
            extra = workload.trace_more(seed, size, probe, captured.episode_envs)
        probe.settle()
    metrics = layers.layer_metrics(recorder, probe.counts, probe.stats, captured)
    metrics.update(extra)
    busy = metrics["sim.run_window.busy_s"]
    metrics["sim.tasks_per_s"] = probe.counts["tasks"] / busy if busy else 0.0
    metrics["sim.window_ms_p50"] = 1000.0 * statistics.median(probe.step_s)
    metrics["sim.window_ms_p99"] = 1000.0 * percentile(probe.step_s, 0.99)
    metrics["sim.window_samples"] = float(len(probe.step_s))
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        probe.wall_s / untraced.wall_s - 1.0
    )
    recorder.write(out_dir / f"spans.{workload.name}.json")
    return metrics, probe


def timed_passes(workload, seed, size, out_dir, seconds, repeats):
    """Identical passes: ``repeats`` of them if given, else as many as
    start within ``seconds`` (and at least ``MIN_REPEATS``)."""
    if repeats:
        return [run_pass(workload, seed, size, out_dir) for _ in range(repeats)]
    probes = []
    deadline = perf_counter() + seconds
    while len(probes) < MIN_REPEATS or perf_counter() < deadline:
        probes.append(run_pass(workload, seed, size, out_dir))
    return probes


def run_workload(name, seed, seconds, repeats, trace, quick, out_dir) -> dict:
    """``repeats`` None: as many passes as ``seconds`` hold."""
    workload = WORKLOADS[name]
    size = workload.size(quick)
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_samples = [set_up(workload, seed, size)]
    if trace:
        probes = [run_pass(workload, seed, size, out_dir, reference=False)]
        metrics, traced = per_layer(workload, seed, size, out_dir, probes[0])
        probes.append(traced)
        checks = merged_checks(probes)
        units = layers.PER_LAYER_UNITS
    else:
        setup_samples += probe_setups(name, seed, quick, SETUP_SAMPLES - 1)
        probes = timed_passes(workload, seed, size, out_dir, seconds, repeats)
        checks = output_checks(workload, seed, size, probes)
        metrics = end_to_end(probes, statistics.median(setup_samples))
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in probes)
    failed = sum(p.failed for p in probes)
    return {
        "workload": name,
        "seed": seed,
        "repeats": len(probes),
        "trace": int(trace),
        "quick": quick,
        "environment": environment(),
        "checks": checks,
        "setup_samples_s": setup_samples,
        "pass_wall_s": [p.wall_s for p in probes],
        "window_samples": len(probes[0].step_s),
        "contract": {
            "correct": failed == 0 and all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in metrics.items()
            },
        },
    }


def print_result(result: dict) -> None:
    contract = result["contract"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"repeats {result['repeats']} trace {result['trace']}")  # fmt: skip
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"pass_wall_s {[round(s, 3) for s in result['pass_wall_s']]} "
          f"window_samples {result['window_samples']}")  # fmt: skip
    for check, ok in sorted(result["checks"].items()):
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    for metric, entry in contract["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(contract))


# --- all workloads ---------------------------------------------------------
def run_all(args) -> int:
    """Every workload, each run in its own process (so that peak memory
    and set-up are per workload), gathered into one result file."""
    document = {"seed": args.seed, "quick": args.quick, "workloads": {}}
    names = [args.workload] if args.workload else list(WORKLOADS)
    base = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--out-dir", str(args.out_dir)]  # fmt: skip
    if args.repeats:
        base += ["--repeats", str(args.repeats)]
    if args.quick:
        base.append("--quick")
    ok = True
    for name in names:
        entry = {"runs": [], "per_layer": {}, "correct": True}
        for trace, count in ((0, args.runs), (1, 1)):
            for _ in range(count):
                done = subprocess.run(
                    base + ["--workload", name, "--trace", str(trace)],
                    capture_output=True, text=True, timeout=900,
                )  # fmt: skip
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                contract = json.loads(done.stdout.strip().splitlines()[-1])
                values = {m: e["value"] for m, e in contract["metrics"].items()}
                entry["correct"] = entry["correct"] and contract["correct"]
                entry["failed_share"] = contract["failed"] / contract["attempted"]
                if trace:
                    entry["per_layer"] = values
                else:
                    entry["runs"].append(values)
        document["workloads"][name] = entry
        ok = ok and entry["correct"]
        medians = {m: statistics.median(r[m] for r in entry["runs"])
                   for m in entry["runs"][0]}  # fmt: skip
        overhead = entry["per_layer"]["bench.trace_overhead_pct"]
        print(
            f"{name}: correct={entry['correct']} runs={len(entry['runs'])} "
            + " ".join(
                f"{m}={v:.4g}{END_TO_END_UNITS[m]}" for m, v in medians.items()
            )
            + f" trace_overhead_pct={overhead:.1f}"
        )
    document["environment"] = environment()
    output = Path(args.output) if args.output else args.out_dir / "result.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="how long a run keeps starting identical passes")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")  # fmt: skip
    parser.add_argument("--repeats", type=int, default=None,
                        help="identical passes per run (default: by --seconds; "
                        "1 with --quick)")  # fmt: skip
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running all")  # fmt: skip
    parser.add_argument("--quick", action="store_true",
                        help="every workload at ~1/20 size (smoke test)")  # fmt: skip
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT,
                        help="where spans.json and scratch files go")  # fmt: skip
    parser.add_argument("--output", help="result file when running all")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--probe-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)  # fmt: skip
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare, benchmark=BENCHMARK_JSON)
    if args.probe_setup:
        workload = WORKLOADS[args.probe_setup]
        print(set_up(workload, args.seed, workload.size(args.quick)))
        return 0
    if args.repeats is None and args.quick:
        args.repeats = 1
    if args.workload is None or args.trace is None:
        return run_all(args)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.repeats, bool(args.trace),
        args.quick, args.out_dir,
    )  # fmt: skip
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
