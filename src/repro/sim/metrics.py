"""Window-level metric records.

The paper collects data and makes decisions "at the beginning of each time
window" (Section II-B).  A :class:`WindowObservation` is everything the
controller and the experiment harness can see about one window:

- ``wip`` — the state vector w(k+1) observed at the window's end,
- ``reward`` — the paper's Eq. (1): ``1 - sum_j w_j``,
- arrival/completion counts and response-time statistics,
- the allocation that was active during the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["WindowObservation", "reward_from_wip"]


def reward_from_wip(wip: np.ndarray) -> float:
    """The paper's reward, Eq. (1): ``r(k) = 1 - sum_j w_j(k)``."""
    return 1.0 - float(np.sum(wip))


@dataclass
class WindowObservation:
    """Everything observed for one control window."""

    index: int
    start_time: float
    end_time: float
    #: State vector at the end of the window (w(k+1)), one entry per task type.
    wip: np.ndarray
    #: Allocation active during the window (m(k)).
    allocation: np.ndarray
    #: Eq. (1) reward computed from ``wip``.
    reward: float
    #: Workflow requests that arrived during the window, per workflow type.
    arrivals: Dict[str, int] = field(default_factory=dict)
    #: Workflow requests completed during the window, per workflow type.
    completions: Dict[str, int] = field(default_factory=dict)
    #: Response times of workflows completed during the window.
    response_times: List[float] = field(default_factory=list)
    #: Same, grouped by workflow type (the per-workflow curves the paper
    #: discusses for LIGO's CAT/Full/Injection).
    response_times_by_type: Dict[str, List[float]] = field(
        default_factory=dict
    )
    #: Task-level completions during the window, per task type.
    task_completions: Dict[str, int] = field(default_factory=dict)
    #: Task requests published (arrived at each queue) during the window.
    task_publishes: Dict[str, int] = field(default_factory=dict)

    @property
    def total_completions(self) -> int:
        return sum(self.completions.values())

    def mean_response_time(self) -> float:
        """Mean response time of workflows completed this window.

        Returns 0.0 when nothing completed — callers that need to
        distinguish "empty" should check ``total_completions``.
        """
        if not self.response_times:
            return 0.0
        return float(np.mean(self.response_times))

    def mean_response_time_for(self, workflow_type: str) -> float:
        """Mean response time of one workflow type this window (0 if none)."""
        times = self.response_times_by_type.get(workflow_type, [])
        if not times:
            return 0.0
        return float(np.mean(times))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowObservation(k={self.index}, wip_sum={float(self.wip.sum()):.0f}, "
            f"reward={self.reward:.1f}, completed={self.total_completions})"
        )
