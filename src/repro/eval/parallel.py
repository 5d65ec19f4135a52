"""Parallel experiment runner: a process map over (experiment, seed) cells.

Figures 5–8 and the ablations are embarrassingly parallel — every cell
builds its own system and agent from an explicit seed — so this module
fans a grid of :class:`ExperimentCell`\\ s over a ``ProcessPoolExecutor``.

Determinism contract (pinned by tests/eval/test_parallel_runner.py):

- every cell's RNG seed is derived *from the cell's label* and the grid's
  root seed (:func:`derive_cell_seed`), never from worker identity,
  scheduling, or completion order;
- results are assembled keyed by label in input-cell order and serialised
  with sorted keys, so the output JSON is byte-identical for any worker
  count — ``workers=4`` reproduces ``workers=1`` reproduces the in-process
  serial path exactly.

Fleet telemetry (``telemetry_dir``): each cell captures its own trace
and metrics snapshot under ``<telemetry_dir>/<label>/`` (the worker owns
the files — no cross-process handles), and the parent merges them in
sorted-label order via :mod:`repro.telemetry.fleet`.  Because traces are
a pure function of (root seed, label), the merged artifacts inherit the
worker-count independence above.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.eval.experiments import EXPERIMENTS
from repro.utils.pool import ordered_pool_map
from repro.utils.rng import derive_stream_seed

__all__ = [
    "ExperimentCell",
    "derive_cell_seed",
    "to_jsonable",
    "default_cells",
    "run_cells",
    "results_to_json",
    "write_results",
    "QUICK_PARAMS",
]

#: Reduced per-experiment schedules for CI, benchmarks and smoke runs.
#: Same code paths as the defaults, just small enough to finish in
#: seconds per cell.
QUICK_PARAMS: Dict[str, Dict] = {
    "fig5": {
        "collect_steps": 24,
        "test_steps": 8,
        "action_hold": 2,
        "model_epochs": 2,
    },
    "fig7": {"steps": 3},
    "fig8": {"steps": 3},
    "ablate-refinement": {"collect_steps": 24, "test_steps": 8},
    "ablate-window": {"window_lengths": (15.0, 30.0), "steps_at_30s": 2},
}


@dataclasses.dataclass(frozen=True)
class ExperimentCell:
    """One (experiment, replicate) grid cell with optional overrides."""

    experiment: str
    replicate: int = 0
    #: Keyword overrides for the experiment entry point, as a sorted
    #: tuple of (name, value) pairs so cells stay hashable and picklable.
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ValueError(
                f"unknown experiment {self.experiment!r}; known: {known}"
            )
        if self.replicate < 0:
            raise ValueError(f"replicate must be >= 0, got {self.replicate}")

    @property
    def label(self) -> str:
        """Stable cell identity; the only input to the cell's RNG seed."""
        return f"{self.experiment}/rep{self.replicate}"

    @classmethod
    def make(
        cls, experiment: str, replicate: int = 0, params: Optional[Dict] = None
    ) -> "ExperimentCell":
        return cls(
            experiment,
            replicate,
            tuple(sorted((params or {}).items())),
        )


def derive_cell_seed(root_seed: int, label: str) -> int:
    """Deterministic per-cell seed keyed by (root seed, cell label).

    Delegates to :func:`repro.utils.rng.derive_stream_seed` — the shared
    label-keyed derivation primitive (no ``hash()``, no dependence on
    cell order), so any scheduling of cells over workers derives the
    same seed.
    """
    return derive_stream_seed(root_seed, label)


def to_jsonable(obj):
    """Recursively convert experiment results to JSON-encodable values.

    Handles the shapes the registry produces: dataclasses (Fig5Result,
    IterationResult, EvalResult/StepRecord via their ``to_jsonable``),
    numpy arrays and scalars, and nested dict/list/tuple containers.
    Non-string dict keys become their ``repr``-style JSON string.
    """
    if hasattr(obj, "to_jsonable"):
        return to_jsonable(obj.to_jsonable())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {
            (key if isinstance(key, str) else repr(key)): to_jsonable(value)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    return obj


def default_cells(
    experiments: Sequence[str] = ("fig5", "fig6", "fig7", "fig8"),
    replicates: int = 1,
    quick: bool = False,
) -> List[ExperimentCell]:
    """The standard grid: each experiment x ``replicates`` cells."""
    if replicates <= 0:
        raise ValueError(f"replicates must be positive, got {replicates}")
    cells = []
    for name in experiments:
        params = QUICK_PARAMS.get(name, {}) if quick else {}
        for replicate in range(replicates):
            cells.append(ExperimentCell.make(name, replicate, params))
    return cells


def _execute_cell(
    spec: Tuple[str, int, Tuple[Tuple[str, object], ...], int, Optional[str]]
) -> Dict:
    """Run one cell (module-level so worker processes can unpickle it).

    With a telemetry directory the worker captures its own trace and
    metrics files under ``<telemetry_dir>/<label>/`` — per-cell capture
    keeps worker processes free of shared handles, and the files are a
    pure function of (root seed, label), not of worker identity.
    """
    experiment, replicate, params, root_seed, telemetry_dir = spec
    cell = ExperimentCell(experiment, replicate, params)
    seed = derive_cell_seed(root_seed, cell.label)
    if telemetry_dir is None:
        result = EXPERIMENTS[experiment](seed=seed, **dict(params))
    else:
        from repro.telemetry.metrics import MetricsSink, write_metrics
        from repro.telemetry.sinks import TRACE_FILENAME, JsonlSink
        from repro.telemetry.tracer import Tracer

        cell_dir = Path(telemetry_dir) / cell.label
        cell_dir.mkdir(parents=True, exist_ok=True)
        sink = MetricsSink(JsonlSink(cell_dir / TRACE_FILENAME))
        with Tracer(sink) as tracer:
            result = EXPERIMENTS[experiment](
                seed=seed, tracer=tracer, **dict(params)
            )
        write_metrics(cell_dir, sink)
    return {
        "experiment": experiment,
        "replicate": replicate,
        "seed": seed,
        "result": to_jsonable(result),
    }


def run_cells(
    cells: Sequence[ExperimentCell],
    root_seed: int = 0,
    workers: int = 1,
    telemetry_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Dict]:
    """Run every cell; returns ``{label: payload}`` in input-cell order.

    ``workers=1`` (or a single cell) runs in-process; larger counts fan
    out over a ``ProcessPoolExecutor``; ``workers=0`` auto-detects
    ``os.cpu_count()`` (falling back to 1 when the count is unknown).
    All paths execute the same ``_execute_cell`` function with the same
    derived seeds, so the returned mapping is identical regardless of
    worker count.

    ``telemetry_dir`` switches on fleet telemetry: per-cell trace and
    metrics capture in the workers, then a sorted-label merge in the
    parent (``fleet_metrics.json``/``.prom`` + ``fleet_manifest.json``).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    labels = [cell.label for cell in cells]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate cell labels in the grid")
    telemetry = None if telemetry_dir is None else str(telemetry_dir)
    specs = [
        (cell.experiment, cell.replicate, cell.params, root_seed, telemetry)
        for cell in cells
    ]
    if workers == 1 or len(specs) <= 1:
        payloads = [_execute_cell(spec) for spec in specs]
    else:
        payloads = list(ordered_pool_map(
            _execute_cell, specs, workers, [f"cell {label}" for label in labels]
        ))
    if telemetry is not None:
        from repro.telemetry.fleet import merge_fleet, write_fleet

        write_fleet(telemetry, merge_fleet(telemetry))
    return dict(zip(labels, payloads))


def results_to_json(results: Dict[str, Dict]) -> str:
    """Canonical serialisation (sorted keys, stable float repr)."""
    return json.dumps(results, indent=2, sort_keys=True) + "\n"


def write_results(path: Union[str, Path], results: Dict[str, Dict]) -> Path:
    """Write the canonical JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(results_to_json(results), encoding="utf-8")
    return path
