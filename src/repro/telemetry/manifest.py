"""Run manifests: the who/what/when of one traced run.

A manifest is a small JSON document written next to the trace file.  It
records everything needed to reproduce or audit the run — the config
snapshot, the experiment seed, the package version and record-schema
version — plus bookkeeping that is *not* part of the deterministic
contract (wall-clock timestamp, record count, counter totals).

Determinism contract: two runs with the same seed and config produce
manifests that are identical except for the fields listed in
:data:`NONDETERMINISTIC_FIELDS`.  ``repro.telemetry`` tests enforce this.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.telemetry.records import SCHEMA_VERSION

__all__ = [
    "RunManifest",
    "NONDETERMINISTIC_FIELDS",
    "wall_time_now",
    "write_manifest",
    "read_manifest",
]

#: Manifest fields allowed to differ between reruns of the same seed.
NONDETERMINISTIC_FIELDS = frozenset({"wall_time"})

MANIFEST_FILENAME = "manifest.json"


def wall_time_now() -> float:
    """Wall-clock timestamp (epoch seconds) for manifest bookkeeping.

    One of the three sanctioned wall-clock reads in the package (the
    other two time phases in :mod:`repro.telemetry.profile`): the
    manifest documents *when a run happened*, which is inherently not
    simulation data.  Trace records themselves only ever carry
    simulation-clock timestamps, and everything measured by a real clock
    is excluded from the determinism contract.
    """
    return time.time()


@dataclass
class RunManifest:
    """Provenance and bookkeeping for one traced run."""

    #: Human-chosen run label (CLI: the output directory name).
    run_name: str
    #: The experiment seed every RngStream was derived from.
    seed: int
    #: Arbitrary config snapshot (e.g. ``dataclasses.asdict(SystemConfig)``).
    config: Dict = field(default_factory=dict)
    #: What produced the trace (e.g. "trace --dataset msd --allocator heft").
    command: str = ""
    package_version: str = ""
    schema_version: int = SCHEMA_VERSION
    #: Simulation time at the end of the run (event-loop seconds).
    sim_time_end: float = 0.0
    records_written: int = 0
    #: Tracer counter totals at the end of the run.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock epoch seconds; None when the caller wants a fully
    #: deterministic manifest.  Excluded from determinism comparisons.
    wall_time: Optional[float] = None

    def to_dict(self) -> Dict:
        """Plain-dict form (what gets serialised)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        """Rebuild a manifest from its serialised form."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = data.keys() - known
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        return cls(**data)


def _manifest_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    return path / MANIFEST_FILENAME if path.is_dir() else path


def write_manifest(path: Union[str, Path], manifest: RunManifest) -> Path:
    """Write ``manifest`` as pretty JSON; returns the file path.

    ``path`` may be a directory (the manifest lands at
    ``<path>/manifest.json``) or an explicit file path.
    """
    target = _manifest_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def read_manifest(path: Union[str, Path]) -> RunManifest:
    """Load a manifest from a file or a run directory."""
    target = _manifest_path(path)
    return RunManifest.from_dict(json.loads(target.read_text(encoding="utf-8")))
