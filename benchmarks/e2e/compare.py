"""``--compare A.json B.json``: apply BENCHMARK.json's bounds to two results.

A is the parent (or the first set of runs), B the change (or the second
set).  For every (workload, end-to-end metric) the verdict follows the
choosing-metrics guide, section 6:

- ``unresolved`` when either side's run-to-run spread (quartile distance
  over the median; the range with fewer than four runs) is wider than
  the metric's bound -- unless every run of B reads better than every
  run of A, which is ``ok``;
- ``worse`` when B's median is worse than A's by more than the bound
  (``unresolved`` if a side has a single run: its spread is unknown);
- ``ok`` otherwise.

When both files were made with the same seed, every exact per-layer
metric (counts and simulated statistics, ``layers.EXACT``) must be
identical, and ``failed_share`` must be 0 on both sides.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

from layers import EXACT  # run.py puts the program and this directory on sys.path

__all__ = ["spread", "verdict", "main"]


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if len(values) < 4:
        width = max(values) - min(values)
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    return abs(width / median) if median else float("inf")


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "ok"
        return "unresolved"
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base)
    if worse_by <= bound:
        return "ok"
    return "worse" if min(len(a), len(b)) > 1 else "unresolved"


def main(path_a: str, path_b: str, benchmark: Path) -> int:
    spec = json.loads(Path(benchmark).read_text())
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    same_seed = a["seed"] == b["seed"] and a["quick"] == b["quick"]
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            print(f"{workload}: missing")
            bad = True
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        cells: Dict[str, str] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells[name] = verdict(
                [run[name] for run in wa["runs"]],
                [run[name] for run in wb["runs"]],
                metric["better"],
                metric["bound"],
            )
        failed = max(wa["failed_share"], wb["failed_share"])
        cells["failed_share"] = "ok" if failed == 0 else f"worse({failed:.3g})"
        if same_seed:
            differing = [
                name
                for name in EXACT
                if wa["per_layer"].get(name) != wb["per_layer"].get(name)
            ]
            cells["exact"] = (
                "identical" if not differing else "differs(" + ",".join(differing) + ")"
            )
        bad = bad or any(
            v.startswith(("worse", "differs")) for v in cells.values()
        )
        print(f"{workload}: " + " ".join(f"{k}={v}" for k, v in cells.items()))
    if not same_seed:
        print("seeds differ: exact metrics not compared")
    return 1 if bad else 0
