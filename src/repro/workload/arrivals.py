"""Arrival processes that drive workflow requests into the system.

A process attaches to a :class:`repro.sim.system.MicroserviceWorkflowSystem`
and schedules ``submit`` events on its event loop.  All randomness comes
from the system's seeded workload stream, so two systems built with the same
seed see identical arrivals.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Optional

from repro.sim.system import MicroserviceWorkflowSystem

__all__ = [
    "ArrivalProcess",
    "PoissonArrivalProcess",
    "DeterministicArrivalProcess",
]


class ArrivalProcess(ABC):
    """Base class: lifecycle + attachment to a system."""

    def __init__(self):
        self._system: Optional[MicroserviceWorkflowSystem] = None
        self.active = False
        self.submitted = 0

    def attach(self, system: MicroserviceWorkflowSystem) -> "ArrivalProcess":
        """Bind to a system and start scheduling arrivals; returns self."""
        if self._system is not None:
            raise RuntimeError("arrival process is already attached")
        self._system = system
        self.active = True
        self._start(system)
        return self

    def stop(self) -> None:
        """Stop generating arrivals (already-scheduled events are dropped)."""
        self.active = False

    def _submit(self, workflow_type: str) -> None:
        if self.active and self._system is not None:
            self._system.submit(workflow_type)
            self.submitted += 1

    @abstractmethod
    def _start(self, system: MicroserviceWorkflowSystem) -> None:
        """Schedule the first event(s) on the system's loop."""


class PoissonArrivalProcess(ArrivalProcess):
    """Independent Poisson arrivals per workflow type (Section VI-A1).

    ``rates`` maps workflow-type name to requests/second.  Zero-rate types
    are allowed and generate nothing.
    """

    def __init__(self, rates: Mapping[str, float]):
        super().__init__()
        for name, rate in rates.items():
            if rate < 0:
                raise ValueError(f"rate for {name!r} must be >= 0, got {rate!r}")
        self.rates = dict(rates)

    def _start(self, system: MicroserviceWorkflowSystem) -> None:
        for workflow_type, rate in self.rates.items():
            system.ensemble.workflow(workflow_type)  # validate the name
            if rate > 0:
                # The system owns the stream's events: a callback chain on
                # the serial substrate, typed rows the window replay can
                # pre-draw on the batched one.
                system.add_arrival_stream(
                    self,
                    workflow_type,
                    rate,
                    system.workload_rng.fork(f"poisson/{workflow_type}"),
                )


class DeterministicArrivalProcess(ArrivalProcess):
    """Fixed-interval arrivals — handy for exactly reproducible tests."""

    def __init__(self, intervals: Mapping[str, float]):
        super().__init__()
        for name, interval in intervals.items():
            if interval <= 0:
                raise ValueError(
                    f"interval for {name!r} must be positive, got {interval!r}"
                )
        self.intervals = dict(intervals)

    def _start(self, system: MicroserviceWorkflowSystem) -> None:
        for workflow_type, interval in self.intervals.items():
            system.ensemble.workflow(workflow_type)
            self._schedule_next(system, workflow_type, interval)

    def _schedule_next(self, system, workflow_type, interval) -> None:
        system.loop.schedule(
            interval, lambda: self._fire(system, workflow_type, interval)
        )

    def _fire(self, system, workflow_type, interval) -> None:
        if not self.active:
            return
        self._submit(workflow_type)
        self._schedule_next(system, workflow_type, interval)
