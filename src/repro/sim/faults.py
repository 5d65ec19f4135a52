"""Fault injection for robustness testing.

The paper's infrastructure is built for availability (TDS ensemble, ack
mechanism, Kubernetes restarts); this module exercises those mechanisms:

- **consumer crashes**: a busy container dies mid-task; its unacked
  request is redelivered (the ack mechanism's guarantee) and the
  replication controller immediately starts a replacement (start-up delay
  applies),
- **TDS replica outages**: a replica goes down for a while; queries
  continue as long as a majority is healthy.

:class:`ChaosInjector` schedules such faults randomly on the system's
event loop, for stress tests and failure-injection suites.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.microservice import Microservice
from repro.sim.system import MicroserviceWorkflowSystem
from repro.utils.rng import RngStream
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["crash_one_consumer", "ChaosInjector"]


def crash_one_consumer(microservice: Microservice) -> bool:
    """Crash one busy (else idle) consumer and start a replacement.

    See :meth:`repro.sim.microservice.Microservice.crash_one` (and its
    batched twin, with identical victim choice and event order).
    """
    return microservice.crash_one()


class ChaosInjector:
    """Random fault schedule over a running system."""

    def __init__(
        self,
        system: MicroserviceWorkflowSystem,
        rng: Optional[RngStream] = None,
        consumer_crash_rate: float = 0.0,
        tds_outage_rate: float = 0.0,
        tds_outage_duration: float = 60.0,
    ):
        check_non_negative("consumer_crash_rate", consumer_crash_rate)
        check_non_negative("tds_outage_rate", tds_outage_rate)
        check_positive("tds_outage_duration", tds_outage_duration)
        self.system = system
        self.rng = rng if rng is not None else system.workload_rng.fork("chaos")
        self.consumer_crash_rate = consumer_crash_rate
        self.tds_outage_rate = tds_outage_rate
        self.tds_outage_duration = tds_outage_duration
        self.active = False
        self.crashes_injected = 0
        self.outages_injected = 0

    def start(self) -> "ChaosInjector":
        """Begin scheduling faults; returns self."""
        if self.active:
            raise RuntimeError("chaos injector already started")
        self.active = True
        if self.consumer_crash_rate > 0:
            self._schedule_crash()
        if self.tds_outage_rate > 0:
            self._schedule_outage()
        return self

    def stop(self) -> None:
        self.active = False

    # Consumer crashes ---------------------------------------------------
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
        if crash_one_consumer(target):
            self.crashes_injected += 1
        self._schedule_crash()

    # TDS outages ----------------------------------------------------------
    def _schedule_outage(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.tds_outage_rate))
        self.system.loop.schedule(delay, self._outage)

    def _outage(self) -> None:
        if not self.active:
            return
        tds = self.system.tds
        healthy = [s.server_id for s in tds.servers if s.up]
        # Never take the last majority down: the infrastructure's
        # availability guarantee only covers minority failures.
        if len(healthy) > tds.quorum:
            victim = healthy[int(self.rng.integers(0, len(healthy)))]
            tds.fail_server(victim)
            self.outages_injected += 1
            if self.system.tracer.enabled:
                self.system.tracer.write({
                    "kind": "event.fault", "t": None,
                    "fault": "tds_outage", "target": victim,
                })
            self.system.loop.schedule(
                self.tds_outage_duration, self._recover, victim
            )
        self._schedule_outage()

    def _recover(self, server_id: int) -> None:
        self.system.tds.recover_server(server_id)
        if self.system.tracer.enabled:
            self.system.tracer.write({
                "kind": "event.fault", "t": None,
                "fault": "tds_recover", "target": server_id,
            })

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChaosInjector(crashes={self.crashes_injected}, "
            f"outages={self.outages_injected})"
        )
