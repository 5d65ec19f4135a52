"""Static / reactive heuristic allocators (sanity anchors).

Not part of the paper's comparison set, but useful as calibration anchors:
a learnt policy that cannot beat uniform or WIP-proportional allocation
has learnt nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import Allocator, largest_remainder_allocation
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation

__all__ = ["UniformAllocator", "ProportionalToWipAllocator"]


class UniformAllocator(Allocator):
    """Split the budget evenly across microservices, every window."""

    name = "uniform"

    def _on_bind(self, env: MicroserviceEnv) -> None:
        # The split is a constant of the binding; each window gets a copy.
        self._split = largest_remainder_allocation(
            np.ones(self.num_services), self.budget
        ).tolist()

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        return self._check(self._split)


class ProportionalToWipAllocator(Allocator):
    """Allocate proportionally to current WIP (queue-pressure reactive).

    ``smoothing`` adds a constant to every weight so empty services retain
    a small share and are not starved the instant their queue drains.
    """

    name = "wip-proportional"

    def __init__(self, smoothing: float = 1.0):
        if smoothing < 0:
            raise ValueError(f"smoothing must be >= 0, got {smoothing!r}")
        self.smoothing = smoothing

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        weights = np.asarray(wip, dtype=np.float64) + self.smoothing
        return self._check(
            largest_remainder_allocation(weights, self.budget)
        )
