"""Shared utilities: seeded RNG streams, validation and the process-pool
map."""

from repro.utils.pool import WorkerDied, ordered_pool_map, resolve_workers
from repro.utils.rng import RngStream, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    isclose_zero,
    require,
)

__all__ = [
    "WorkerDied",
    "ordered_pool_map",
    "resolve_workers",
    "RngStream",
    "spawn_rngs",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "isclose_zero",
    "require",
]
