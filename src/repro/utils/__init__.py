"""Shared utilities: seeded RNG streams, validation and the serial/batch
pair registry."""

from repro.utils.batchpairs import (
    BatchPair,
    batched_pair,
    registered_pairs,
)
from repro.utils.pool import WorkerDied, ordered_pool_map
from repro.utils.rng import (
    ReproducibilityWarning,
    RngStream,
    fallback_stream,
    spawn_rngs,
)
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    isclose_zero,
    require,
)

__all__ = [
    "BatchPair",
    "batched_pair",
    "registered_pairs",
    "WorkerDied",
    "ordered_pool_map",
    "RngStream",
    "ReproducibilityWarning",
    "spawn_rngs",
    "fallback_stream",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "isclose_zero",
    "require",
]
