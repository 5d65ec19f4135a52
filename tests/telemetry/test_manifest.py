"""Run-manifest serialisation and the determinism contract."""

import dataclasses

import pytest

from repro.telemetry import (
    NONDETERMINISTIC_FIELDS,
    RunManifest,
    read_manifest,
    wall_time_now,
    write_manifest,
)


def make_manifest(**overrides):
    base = dict(
        run_name="trace-msd",
        seed=7,
        config={"dataset": "msd", "consumer_budget": 14},
        command="trace --dataset msd --seed 7",
        package_version="1.0.0",
        sim_time_end=450.0,
        records_written=3720,
        counters={"refinement/lends": 19},
        wall_time=1e9,
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRunManifest:
    def test_round_trip(self):
        manifest = make_manifest()
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_unknown_fields_rejected(self):
        data = make_manifest().to_dict()
        data["gpu_count"] = 8
        with pytest.raises(ValueError, match="unknown manifest fields"):
            RunManifest.from_dict(data)

    def test_same_seed_manifests_agree_modulo_wall_time(self):
        a = make_manifest(wall_time=1e9)
        b = make_manifest(wall_time=2e9)
        assert a != b
        assert set(NONDETERMINISTIC_FIELDS) == {"wall_time"}
        assert dataclasses.replace(a, wall_time=None) == (
            dataclasses.replace(b, wall_time=None)
        )

    def test_wall_time_now_is_epoch_seconds(self):
        stamp = wall_time_now()
        assert isinstance(stamp, float)
        assert stamp > 1.5e9  # after 2017; sanity, not a clock test


class TestManifestIo:
    def test_write_to_directory_lands_at_manifest_json(self, tmp_path):
        manifest = make_manifest()
        target = write_manifest(tmp_path, manifest)
        assert target == tmp_path / "manifest.json"
        assert read_manifest(tmp_path) == manifest

    def test_write_to_explicit_file(self, tmp_path):
        manifest = make_manifest()
        target = write_manifest(tmp_path / "custom.json", manifest)
        assert target.name == "custom.json"
        assert read_manifest(target) == manifest

    def test_output_is_stable_json(self, tmp_path):
        """Byte-identical re-serialisation (sorted keys, trailing newline)."""
        manifest = make_manifest()
        first = write_manifest(tmp_path / "a.json", manifest).read_text()
        second = write_manifest(tmp_path / "b.json", manifest).read_text()
        assert first == second
        assert first.endswith("\n")
