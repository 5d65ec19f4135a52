"""Reward functions.

The paper's Eq. (1): ``r(k) = 1 - sum_j w_j(k)`` — "the cumulative
discounted reward R(k) reflects the total number of finished microservices
starting from the current time window".
"""

from __future__ import annotations

import numpy as np

from repro.utils.batchpairs import batched_pair

__all__ = ["reward_eq1", "reward_eq1_batch"]


def reward_eq1(wip: np.ndarray) -> float:
    """Eq. (1): one minus the aggregate work-in-progress."""
    wip = np.asarray(wip, dtype=np.float64)
    if np.any(wip < 0):
        raise ValueError(f"WIP must be non-negative, got {wip}")
    return 1.0 - float(wip.sum())


@batched_pair("reward_eq1")
def reward_eq1_batch(wip: np.ndarray) -> np.ndarray:
    """Eq. (1) over a ``(K, state_dim)`` batch; returns ``(K,)`` rewards.

    Row ``k`` equals ``reward_eq1(wip[k])`` bit-for-bit (the axis-1 sum
    reduces each row in the same order as the flat sum of one row).
    """
    wip = np.asarray(wip, dtype=np.float64)
    if wip.ndim != 2:
        raise ValueError(f"expected a (K, state_dim) batch, got {wip.shape}")
    if np.any(wip < 0):
        raise ValueError("WIP must be non-negative")
    return 1.0 - wip.sum(axis=1)
