"""The parallel experiment runner's determinism contract.

Pins the ISSUE's acceptance property: the results JSON is *byte*
identical for the in-process serial path and process pools of any
worker count — per-cell seeds derive from (root seed, cell label), so
scheduling, worker identity and completion order cannot leak into
results.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.eval.parallel import (
    QUICK_PARAMS,
    ExperimentCell,
    default_cells,
    derive_cell_seed,
    results_to_json,
    run_cells,
    to_jsonable,
    write_results,
)


#: Small enough for test time, big enough to exercise train + refine.
FIG5_FAST = {
    "collect_steps": 24,
    "test_steps": 8,
    "action_hold": 2,
    "model_epochs": 2,
}


def _fast_cells(replicates=2):
    return [
        ExperimentCell.make("fig5", rep, FIG5_FAST)
        for rep in range(replicates)
    ]


class TestDeriveCellSeed:
    def test_deterministic(self):
        assert derive_cell_seed(0, "fig5/rep0") == derive_cell_seed(
            0, "fig5/rep0"
        )

    def test_sensitive_to_label_and_root(self):
        seeds = {
            derive_cell_seed(0, "fig5/rep0"),
            derive_cell_seed(0, "fig5/rep1"),
            derive_cell_seed(0, "fig7/rep0"),
            derive_cell_seed(1, "fig5/rep0"),
        }
        assert len(seeds) == 4

    def test_negative_root_rejected(self):
        with pytest.raises(ValueError):
            derive_cell_seed(-1, "fig5/rep0")


class TestExperimentCell:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentCell.make("fig99")

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError, match="replicate"):
            ExperimentCell.make("fig5", replicate=-1)

    def test_label_stable_under_param_order(self):
        a = ExperimentCell.make("fig5", 0, {"x": 1, "y": 2})
        b = ExperimentCell.make("fig5", 0, {"y": 2, "x": 1})
        assert a == b
        assert a.label == "fig5/rep0"

    def test_default_cells_quick_injects_params(self):
        cells = default_cells(["fig5"], replicates=2, quick=True)
        assert [c.label for c in cells] == ["fig5/rep0", "fig5/rep1"]
        assert all(
            dict(c.params) == QUICK_PARAMS["fig5"] for c in cells
        )

    def test_default_cells_rejects_bad_replicates(self):
        with pytest.raises(ValueError):
            default_cells(["fig5"], replicates=0)


class TestToJsonable:
    def test_numpy_and_dataclass_round_trip(self):
        @dataclasses.dataclass
        class Inner:
            values: np.ndarray

        payload = {
            "arr": np.arange(3, dtype=np.float64),
            "scalar": np.float64(1.5),
            "flag": np.bool_(True),
            "nested": Inner(values=np.zeros(2)),
            ("tuple", "key"): [np.int64(7)],
        }
        out = to_jsonable(payload)
        json.dumps(out)  # must be JSON-encodable as-is
        assert out["arr"] == [0.0, 1.0, 2.0]
        assert out["scalar"] == 1.5
        assert out["flag"] is True
        assert out["nested"] == {"values": [0.0, 0.0]}
        assert out["('tuple', 'key')"] == [7]


class TestRunCells:
    def test_duplicate_labels_rejected(self):
        cells = [ExperimentCell.make("fig5"), ExperimentCell.make("fig5")]
        with pytest.raises(ValueError, match="duplicate"):
            run_cells(cells)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_cells(_fast_cells(1), workers=-1)

    def test_workers_zero_auto_detects_cpu_count(self, monkeypatch):
        """``workers=0`` resolves to ``os.cpu_count()`` (1 when unknown)."""
        import os

        calls = []
        real_cpu_count = os.cpu_count

        def counting_cpu_count():
            calls.append(1)
            return real_cpu_count()

        monkeypatch.setattr(os, "cpu_count", counting_cpu_count)
        auto = run_cells(_fast_cells(1), root_seed=0, workers=0)
        assert calls, "workers=0 must consult os.cpu_count()"
        assert auto == run_cells(_fast_cells(1), root_seed=0, workers=1)

        # Unknown CPU count (cpu_count() -> None) falls back to 1 worker.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        fallback = run_cells(_fast_cells(1), root_seed=0, workers=0)
        assert fallback == auto

    def test_parallel_json_byte_identical_to_serial(self, tmp_path):
        """The tentpole determinism pin: workers ∈ {1, 4} agree bytewise."""
        cells = _fast_cells(replicates=2)
        serial = run_cells(cells, root_seed=0, workers=1)
        parallel = run_cells(cells, root_seed=0, workers=4)
        serial_json = results_to_json(serial)
        assert results_to_json(parallel) == serial_json

        path = write_results(tmp_path / "out" / "results.json", parallel)
        assert path.read_text(encoding="utf-8") == serial_json

        # Sanity on the payload shape: labels key the mapping, every cell
        # records its derived seed, and the result is already plain JSON.
        assert list(serial) == ["fig5/rep0", "fig5/rep1"]
        for label, payload in serial.items():
            assert payload["seed"] == derive_cell_seed(0, label)
            assert payload["experiment"] == "fig5"
        assert (
            serial["fig5/rep0"]["result"] != serial["fig5/rep1"]["result"]
        ), "replicates with different seeds produced identical results"

    def test_root_seed_changes_results(self):
        cells = _fast_cells(replicates=1)
        a = run_cells(cells, root_seed=0, workers=1)
        b = run_cells(cells, root_seed=1, workers=1)
        assert results_to_json(a) != results_to_json(b)
