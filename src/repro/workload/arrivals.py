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
from repro.workload.trace import ArrivalTrace

__all__ = [
    "ArrivalProcess",
    "PoissonArrivalProcess",
    "DeterministicArrivalProcess",
    "ModulatedPoissonArrivalProcess",
    "TraceArrivalProcess",
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


class ModulatedPoissonArrivalProcess(ArrivalProcess):
    """Two-phase Markov-modulated Poisson process (bursty workloads).

    Alternates between a low-rate and a high-rate phase with exponentially
    distributed phase durations.  Models the "variant number of requests in
    different time windows" challenge of Section II-C more aggressively than
    a plain Poisson process.
    """

    def __init__(
        self,
        low_rates: Mapping[str, float],
        high_rates: Mapping[str, float],
        mean_phase_duration: float = 300.0,
    ):
        super().__init__()
        if set(low_rates) != set(high_rates):
            raise ValueError("low and high rate maps must cover the same types")
        if mean_phase_duration <= 0:
            raise ValueError(
                f"mean_phase_duration must be positive, got {mean_phase_duration!r}"
            )
        self.low_rates = dict(low_rates)
        self.high_rates = dict(high_rates)
        self.mean_phase_duration = mean_phase_duration
        self.phase = "low"

    def _current_rate(self, workflow_type: str) -> float:
        rates = self.low_rates if self.phase == "low" else self.high_rates
        return rates[workflow_type]

    def _start(self, system: MicroserviceWorkflowSystem) -> None:
        self._phase_rng = system.workload_rng.fork("mmpp/phase")
        for workflow_type in self.low_rates:
            system.ensemble.workflow(workflow_type)
            rng = system.workload_rng.fork(f"mmpp/{workflow_type}")
            self._schedule_next(system, workflow_type, rng)
        self._schedule_phase_switch(system)

    def _schedule_phase_switch(self, system) -> None:
        delay = float(self._phase_rng.exponential(self.mean_phase_duration))
        system.loop.schedule(delay, lambda: self._switch_phase(system))

    def _switch_phase(self, system) -> None:
        if not self.active:
            return
        self.phase = "high" if self.phase == "low" else "low"
        self._schedule_phase_switch(system)

    def _schedule_next(self, system, workflow_type, rng) -> None:
        rate = self._current_rate(workflow_type)
        # With rate 0 in this phase, poll again after a phase-scale delay.
        delay = (
            float(rng.exponential(1.0 / rate))
            if rate > 0
            else self.mean_phase_duration / 10.0
        )
        system.loop.schedule(
            delay, lambda: self._fire(system, workflow_type, rng, rate)
        )

    def _fire(self, system, workflow_type, rng, sampled_rate) -> None:
        if not self.active:
            return
        # Thinning: if the phase changed, accept with probability
        # new_rate / sampled_rate (standard MMPP simulation via thinning).
        current = self._current_rate(workflow_type)
        if sampled_rate > 0 and current > 0:
            accept = min(1.0, current / sampled_rate)
            if float(rng.uniform()) < accept:
                self._submit(workflow_type)
        elif current > 0 and sampled_rate == 0:
            pass  # polling wake-up, no arrival
        self._schedule_next(system, workflow_type, rng)


class TraceArrivalProcess(ArrivalProcess):
    """Replay a recorded :class:`ArrivalTrace` exactly.

    Comparisons across allocators use this so every algorithm faces the
    identical arrival sequence.
    """

    def __init__(self, trace: ArrivalTrace):
        super().__init__()
        self.trace = trace

    def _start(self, system: MicroserviceWorkflowSystem) -> None:
        now = system.loop.now
        for time, workflow_type in self.trace.events:
            if time < now:
                raise ValueError(
                    f"trace event at t={time} is before current time {now}"
                )
            system.loop.schedule_at(
                time, lambda wt=workflow_type: self._submit(wt)
            )
