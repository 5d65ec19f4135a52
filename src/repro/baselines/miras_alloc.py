"""Adapter exposing a trained MIRAS agent through the allocator interface.

The comparison harness (:mod:`repro.eval.runner`) treats every algorithm
uniformly; this wrapper lets a :class:`repro.core.agent.MirasAgent` —
trained via Algorithm 2 — join the Figs. 7–8 comparisons.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import Allocator
from repro.core.agent import MirasAgent
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation

__all__ = ["MirasAllocator"]


class MirasAllocator(Allocator):
    """A trained MIRAS agent as a per-window allocator."""

    name = "miras"

    def __init__(self, agent: MirasAgent):
        self.agent = agent

    def _on_bind(self, env: MicroserviceEnv) -> None:
        if self.agent.env.consumer_budget != env.consumer_budget:
            raise ValueError(
                "trained MIRAS agent has a different consumer budget "
                f"({self.agent.env.consumer_budget} vs {env.consumer_budget})"
            )

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        return self._check(self.agent.act(wip))
