"""Arrival-trace record and replay."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Mapping, Tuple, Union

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

    @property
    def horizon(self) -> float:
        """Timestamp of the last event (0.0 for an empty trace)."""
        return self.events[-1][0] if self.events else 0.0

    def shifted(self, offset: float) -> "ArrivalTrace":
        """A copy with every timestamp moved by ``offset`` (>= 0 result)."""
        events = [(t + offset, wt) for t, wt in self.events]
        return ArrivalTrace(events)

    # Persistence -----------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines."""
        path = Path(path)
        with path.open("w") as handle:
            for time, workflow_type in self.events:
                handle.write(json.dumps({"t": time, "wf": workflow_type}) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ArrivalTrace":
        """Read a trace written by :meth:`save`."""
        events: List[Tuple[float, str]] = []
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                events.append((float(record["t"]), str(record["wf"])))
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)
