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
from repro.core.config import MirasConfig
from repro.sim.env import MicroserviceEnv
from repro.sim.metrics import WindowObservation

__all__ = ["MirasAllocator"]


class MirasAllocator(Allocator):
    """MIRAS as a per-window allocator.

    Either wrap an already-trained agent, or let :meth:`prepare` run the
    full Algorithm-2 training against the environment it is handed.
    """

    name = "miras"

    def __init__(
        self,
        agent: Optional[MirasAgent] = None,
        config: Optional[MirasConfig] = None,
        seed: int = 0,
    ):
        self.agent = agent
        self.config = config
        self.seed = seed

    def prepare(self, env: MicroserviceEnv) -> None:
        self.bind(env)
        if self.agent is None:
            self.agent = MirasAgent(env, self.config, seed=self.seed)
            self.agent.iterate()
        elif self.agent.env.consumer_budget != env.consumer_budget:
            raise ValueError(
                "trained MIRAS agent has a different consumer budget "
                f"({self.agent.env.consumer_budget} vs {env.consumer_budget})"
            )

    def allocate(
        self,
        wip: np.ndarray,
        observation: Optional[WindowObservation] = None,
    ) -> np.ndarray:
        if self.agent is None:
            raise RuntimeError("call prepare() before allocate()")
        return self._check(self.agent.act(wip))
