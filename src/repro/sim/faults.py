"""Fault injection for robustness testing.

The paper's infrastructure is built for availability (ack mechanism,
Kubernetes restarts); this module exercises the part of it that reaches
the work in progress: **consumer crashes**.  A busy container dies
mid-task; its unacked request is redelivered (the ack mechanism's
guarantee) and the replication controller immediately starts a
replacement (start-up delay applies).  See
:meth:`repro.sim.microservice.Microservice.crash_one`.

:class:`ChaosInjector` schedules crashes randomly on the system's event
loop, for stress tests and failure-injection suites.
"""

from __future__ import annotations

from repro.sim.system import MicroserviceWorkflowSystem
from repro.utils.validation import check_non_negative

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Random consumer-crash schedule over a running system."""

    def __init__(
        self,
        system: MicroserviceWorkflowSystem,
        consumer_crash_rate: float = 0.0,
    ):
        check_non_negative("consumer_crash_rate", consumer_crash_rate)
        self.system = system
        self.rng = system.workload_rng.fork("chaos")
        self.consumer_crash_rate = consumer_crash_rate
        self.active = False
        self.crashes_injected = 0

    def start(self) -> "ChaosInjector":
        """Begin scheduling faults; returns self."""
        if self.active:
            raise RuntimeError("chaos injector already started")
        self.active = True
        if self.consumer_crash_rate > 0:
            self._schedule_crash()
        return self

    def stop(self) -> None:
        self.active = False

    def _schedule_crash(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.consumer_crash_rate))
        self.system.loop.schedule(delay, self._crash)

    def _crash(self) -> None:
        if not self.active:
            return
        names = list(self.system.microservices)
        target = self.system.microservices[
            names[int(self.rng.integers(0, len(names)))]
        ]
        if target.crash_one():
            self.crashes_injected += 1
        self._schedule_crash()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosInjector(crashes={self.crashes_injected})"
