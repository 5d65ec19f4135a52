"""Window-level metric records.

The paper collects data and makes decisions "at the beginning of each time
window" (Section II-B).  A :class:`WindowObservation` is everything the
controller and the experiment harness can see about one window:

- ``wip`` — the state vector w(k+1) observed at the window's end,
- ``reward`` — the paper's Eq. (1): ``1 - sum_j w_j``,
- arrival/completion counts and response-time statistics,
- the allocation that was active during the window.

:class:`DelayByArrivalWindow` implements the paper's exact d_i(k)
definition — "averaging delays of all requests of type i that **arrive**
during (T_k, T_k+1)" — which is only fully known once those requests finish.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.utils.batchpairs import batched_pair

__all__ = ["WindowObservation", "DelayByArrivalWindow", "reward_from_wip"]


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
    def total_arrivals(self) -> int:
        return sum(self.arrivals.values())

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


class DelayByArrivalWindow:
    """Attribute workflow delays to the window the request *arrived* in.

    This is the paper's d_i(k).  Because a request's delay is only known at
    completion (possibly many windows later), entries accumulate lazily;
    :meth:`mean_delay` reports the average over *finished* requests of that
    arrival window (partial until the tail completes).
    """

    def __init__(self):
        self._delays: Dict[Tuple[int, str], List[float]] = defaultdict(list)
        self._arrived: Dict[Tuple[int, str], int] = defaultdict(int)

    def record_arrival(self, window_index: int, workflow_type: str) -> None:
        self._arrived[(window_index, workflow_type)] += 1

    @batched_pair("record_arrival")
    def record_arrivals(
        self, count: int, window_index: int, workflow_type: str
    ) -> None:
        """Record ``count`` arrivals at once (burst submission path)."""
        if count < 0:
            raise ValueError(f"arrival count must be non-negative, got {count}")
        if count:
            self._arrived[(window_index, workflow_type)] += count

    def record_completion(
        self, arrival_window: int, workflow_type: str, delay: float
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._delays[(arrival_window, workflow_type)].append(delay)

    def mean_delay(self, window_index: int, workflow_type: str) -> Optional[float]:
        """d_i(k); ``None`` when no request of that type arrived in window k."""
        if self._arrived.get((window_index, workflow_type), 0) == 0:
            return None
        delays = self._delays.get((window_index, workflow_type), [])
        if not delays:
            return None  # arrived but none finished yet
        return float(np.mean(delays))

    def completion_fraction(self, window_index: int, workflow_type: str) -> float:
        """Fraction of window-k arrivals of this type that have finished."""
        arrived = self._arrived.get((window_index, workflow_type), 0)
        if arrived == 0:
            return 1.0
        return len(self._delays.get((window_index, workflow_type), [])) / arrived

    def delay_vector(
        self, window_index: int, workflow_names: Tuple[str, ...]
    ) -> np.ndarray:
        """d(k) as a vector; missing entries are NaN."""
        values = [
            self.mean_delay(window_index, name) for name in workflow_names
        ]
        return np.array(
            [np.nan if v is None else v for v in values], dtype=np.float64
        )
