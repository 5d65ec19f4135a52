"""reprolint configuration, read from ``[tool.reprolint]`` in pyproject.toml.

Recognised keys::

    [tool.reprolint]
    paths = ["src/repro"]          # what to analyse (files or directories)
    disable = ["A103"]             # rule ids to turn off globally
    baseline = "reprolint-baseline.json"   # optional ratchet file
    exclude = ["src/repro/_vendored"]      # path prefixes to skip
    hotpath_roots = ["step", "predict_batch"]  # N102 reachability roots

    [tool.reprolint.layers]        # import DAG (L1): package -> allowed deps
    "repro.sim" = ["repro.telemetry", "repro.utils", "repro.workflows"]

TOML parsing uses the stdlib :mod:`tomllib` (Python >= 3.11).  On older
interpreters — where tomllib does not exist and the project vendors no
TOML parser — configuration silently falls back to the defaults, keeping
the analyser importable everywhere the library runs.  A key outside the
list above is a :class:`ValueError`: a typo such as ``hotpath_root`` must
not silently leave the default in force.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on Python <= 3.10
    tomllib = None

__all__ = [
    "LintConfig",
    "load_config",
    "find_pyproject",
    "DEFAULT_LAYERS",
    "DEFAULT_HOTPATH_ROOTS",
]

_DEFAULT_PATHS = ["src/repro"]

#: The import DAG of docs/ARCHITECTURE.md, as package -> packages it may
#: import at module scope.  Packages not listed (``repro.cli`` and the
#: top-level modules) are unconstrained; lazy function-level imports are
#: always exempt — they are the sanctioned escape hatch for optional
#: heavy edges (e.g. ``telemetry.report`` formatting via ``repro.eval``).
DEFAULT_LAYERS: Dict[str, List[str]] = {
    "repro.utils": [],
    "repro.nn": ["repro.utils"],
    "repro.telemetry": ["repro.utils"],
    "repro.workflows": ["repro.utils"],
    "repro.sim": ["repro.telemetry", "repro.utils", "repro.workflows"],
    "repro.workload": ["repro.sim", "repro.utils"],
    "repro.rl": ["repro.nn", "repro.telemetry", "repro.utils"],
    "repro.core": [
        "repro.nn", "repro.rl", "repro.sim", "repro.telemetry", "repro.utils",
    ],
    "repro.baselines": [
        "repro.core", "repro.rl", "repro.sim", "repro.utils",
        "repro.workflows",
    ],
    "repro.eval": [
        "repro.baselines", "repro.core", "repro.rl", "repro.sim",
        "repro.telemetry", "repro.utils", "repro.workflows", "repro.workload",
    ],
    # reprolint reads runtime packages as ASTs, never imports them.
    "repro.analysis": [],
}

#: Roots of the numeric hot path (N102): scalar accumulation loops in
#: functions reachable from these names are flagged as vectorisation
#: hazards; cold utility code is left alone.
DEFAULT_HOTPATH_ROOTS: List[str] = [
    "step",
    "predict_batch",
    "train_policy",
]


@dataclass
class LintConfig:
    """Resolved configuration for one analysis run."""

    #: Project root every relative path below is resolved against.
    root: Path
    paths: List[str] = field(default_factory=lambda: list(_DEFAULT_PATHS))
    disable: List[str] = field(default_factory=list)
    baseline: Optional[str] = None
    exclude: List[str] = field(default_factory=list)
    #: Import DAG enforced by L1: package -> packages it may import.
    layers: Dict[str, List[str]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    #: Roots of the N102 hot-path reachability closure.
    hotpath_roots: List[str] = field(
        default_factory=lambda: list(DEFAULT_HOTPATH_ROOTS)
    )

    def resolved_paths(self) -> List[Path]:
        """Analysis targets as absolute paths."""
        return [self.root / p for p in self.paths]

    def baseline_path(self) -> Optional[Path]:
        """Absolute baseline path, or None when no baseline is configured."""
        if self.baseline is None:
            return None
        return self.root / self.baseline


#: Every key ``[tool.reprolint]`` accepts (one per settable field);
#: anything else is rejected.
_KNOWN_KEYS = frozenset(f.name for f in fields(LintConfig)) - {"root"}


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest pyproject.toml."""
    current = start.resolve()
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from the nearest pyproject.toml.

    Without a pyproject.toml (or on interpreters without :mod:`tomllib`)
    the defaults apply, rooted at ``start``.  Raises :class:`ValueError`
    for a ``[tool.reprolint]`` key that is not recognised.
    """
    start = (start or Path.cwd()).resolve()
    pyproject = find_pyproject(start)
    if pyproject is None or tomllib is None:
        return LintConfig(root=start)
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    section = data.get("tool", {}).get("reprolint", {})
    if "cache" in section:
        raise ValueError(
            f"{pyproject}: [tool.reprolint] key 'cache' was removed: "
            "the index is rebuilt every run; delete the key"
        )
    unknown = sorted(set(section) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(
            f"{pyproject}: unknown [tool.reprolint] key(s) "
            f"{', '.join(repr(k) for k in unknown)}; accepted keys are "
            f"{', '.join(sorted(_KNOWN_KEYS))}"
        )
    config = LintConfig(root=pyproject.parent)
    if "paths" in section:
        config.paths = [str(p) for p in section["paths"]]
    if "disable" in section:
        config.disable = [str(r) for r in section["disable"]]
    if "baseline" in section:
        config.baseline = str(section["baseline"])
    if "exclude" in section:
        config.exclude = [str(p) for p in section["exclude"]]
    if "layers" in section:
        config.layers = {
            str(pkg): [str(d) for d in deps]
            for pkg, deps in section["layers"].items()
        }
    if "hotpath_roots" in section:
        config.hotpath_roots = [str(n) for n in section["hotpath_roots"]]
    return config
