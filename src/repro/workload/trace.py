"""Arrival-trace record (replayed by ``TraceArrivalProcess``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

__all__ = ["ArrivalTrace"]


@dataclass
class ArrivalTrace:
    """A time-ordered sequence of (arrival_time, workflow_type) events."""

    events: List[Tuple[float, str]] = field(default_factory=list)

    def __post_init__(self):
        last = -1.0
        for time, workflow_type in self.events:
            if time < 0:
                raise ValueError(f"negative arrival time {time!r}")
            if time < last:
                raise ValueError("trace events must be time-ordered")
            if not workflow_type:
                raise ValueError("workflow type must be non-empty")
            last = time

    def counts(self) -> Mapping[str, int]:
        """Total arrivals per workflow type."""
        out: dict = {}
        for _, workflow_type in self.events:
            out[workflow_type] = out.get(workflow_type, 0) + 1
        return out

    def shifted(self, offset: float) -> "ArrivalTrace":
        """A copy with every timestamp moved by ``offset`` (>= 0 result)."""
        events = [(t + offset, wt) for t, wt in self.events]
        return ArrivalTrace(events)

    def __len__(self) -> int:
        return len(self.events)
