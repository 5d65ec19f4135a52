"""The log compression every network input applies to WIP states."""

from __future__ import annotations

import numpy as np

__all__ = ["log_wip"]


def log_wip(states) -> np.ndarray:
    """``log1p(max(w, 0))`` of a WIP state block, as float64.

    WIP is non-negative and heavy-tailed (near zero under background
    load, hundreds to thousands in a burst), so the log keeps resolution
    near the boundary while bounding burst states.
    """
    return np.log1p(np.maximum(np.asarray(states, dtype=np.float64), 0.0))
