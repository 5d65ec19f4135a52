"""Reward functions.

The paper's Eq. (1): ``r(k) = 1 - sum_j w_j(k)`` — "the cumulative
discounted reward R(k) reflects the total number of finished microservices
starting from the current time window".
"""

from __future__ import annotations

import numpy as np

__all__ = ["reward_eq1"]


def reward_eq1(wip: np.ndarray) -> np.ndarray:
    """Eq. (1) over a ``(K, state_dim)`` block of WIP; returns ``(K,)``.

    Pass one state as a ``(1, state_dim)`` batch.  Row ``k`` equals one minus the
    flat sum of ``wip[k]`` bit-for-bit (the axis-1 sum reduces each row in
    the same order).
    """
    wip = np.asarray(wip, dtype=np.float64)
    if wip.ndim != 2:
        raise ValueError(f"expected a (K, state_dim) batch, got {wip.shape}")
    if not np.all(wip >= 0):
        raise ValueError(f"WIP must be non-negative, got {wip}")
    return 1.0 - wip.sum(axis=1)
