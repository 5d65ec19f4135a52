"""Fleet telemetry: merge per-cell traces from parallel runs.

The parallel runner (:mod:`repro.eval.parallel`) captures one trace per
grid cell under ``<telemetry_dir>/<experiment>/rep<k>/trace.jsonl``.
This module merges those captures in the parent process:

- :func:`discover_cells` finds every per-cell trace, keyed by its label
  (the cell directory's path relative to the fleet root), **sorted** —
  never in completion or worker order;
- :func:`merge_fleet` replays all cells, in label order, through one
  :class:`~repro.telemetry.metrics.MetricsSink`, yielding a merged
  registry snapshot plus a wall-time-free fleet manifest.

Because per-cell traces are a pure function of (root seed, label) and
the merge order is the sorted label order, the merged snapshot and
manifest are byte-identical for any worker count — ``workers=4``
reproduces ``workers=1`` exactly (pinned by tests/eval/test_fleet.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.telemetry.metrics import MetricsSink, snapshot_to_json
from repro.telemetry.sinks import TRACE_FILENAME, load_trace

__all__ = [
    "FLEET_VERSION",
    "FLEET_MANIFEST_FILENAME",
    "FLEET_METRICS_FILENAME",
    "FLEET_EXPOSITION_FILENAME",
    "FleetMerge",
    "discover_cells",
    "merge_fleet",
    "write_fleet",
]

#: Bumped whenever the fleet manifest document changes shape.
FLEET_VERSION = 1

FLEET_MANIFEST_FILENAME = "fleet_manifest.json"
FLEET_METRICS_FILENAME = "fleet_metrics.json"
FLEET_EXPOSITION_FILENAME = "fleet_metrics.prom"


@dataclass
class FleetMerge:
    """The merged view over every cell of one parallel run."""

    #: Every cell's records, folded in label order.
    sink: MetricsSink
    #: Per-cell bookkeeping rows, in sorted label order.
    cells: List[Dict] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        return sum(c["records"] for c in self.cells)

    def manifest(self) -> Dict:
        """Wall-time-free manifest: merge inputs and their extents."""
        return {
            "fleet_version": FLEET_VERSION,
            "cells": self.cells,
            "total_records": self.total_records,
        }

    def manifest_json(self) -> str:
        return json.dumps(
            self.manifest(), sort_keys=True, separators=(",", ":")
        ) + "\n"


def discover_cells(root: Union[str, Path]) -> List[Tuple[str, Path]]:
    """Find per-cell traces under a fleet directory, sorted by label.

    The label is the trace's parent directory relative to ``root`` in
    POSIX form (e.g. ``fig5/rep0``) — the same string the runner derives
    cell seeds from, so merge identity follows cell identity.
    """
    root = Path(root)
    cells = []
    for trace in root.glob(f"**/{TRACE_FILENAME}"):
        label = trace.parent.relative_to(root).as_posix()
        cells.append((label, trace))
    cells.sort(key=lambda item: item[0])
    return cells


def merge_fleet(root: Union[str, Path]) -> FleetMerge:
    """Replay every cell trace, in label order, into one metrics sink."""
    sink = MetricsSink()
    merge = FleetMerge(sink=sink)
    for label, trace_path in discover_cells(root):
        records = load_trace(trace_path)
        sim_time_end = 0.0
        for record in records:
            sink.write(record)
            t = record.get("t")
            if t is not None:
                sim_time_end = float(t)
        merge.cells.append({
            "label": label,
            "records": len(records),
            "sim_time_end": sim_time_end,
        })
    return merge


def write_fleet(root: Union[str, Path], merge: FleetMerge) -> Path:
    """Write the merged snapshot, exposition and manifest into ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / FLEET_METRICS_FILENAME).write_text(
        snapshot_to_json(merge.sink.snapshot()), encoding="utf-8"
    )
    (root / FLEET_EXPOSITION_FILENAME).write_text(
        merge.sink.to_prometheus(), encoding="utf-8"
    )
    target = root / FLEET_MANIFEST_FILENAME
    target.write_text(merge.manifest_json(), encoding="utf-8")
    return target
