"""Consumer containers (Docker-container analog).

A consumer takes task requests from its microservice's queue, processes
one at a time, and acks on completion.  The lifecycle mirrors what the
paper measured on Kubernetes: "it usually takes 5 to 10 seconds for
Kubernetes to generate a new container or destroy an existing container" —
new consumers spend a start-up delay before their first consume, and a
killed busy consumer nacks its in-flight request so the queue redelivers it
(the paper's no-lost-requests ack mechanism).
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Optional, Tuple, TYPE_CHECKING

from repro.sim.events import EventHandle
from repro.sim.queueing import DeliveryTag
from repro.sim.requests import TaskRequest
from repro.utils.validation import isclose_zero

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.cluster import Node
    from repro.sim.microservice import Microservice

__all__ = [
    "Consumer",
    "ConsumerState",
    "lognormal_params",
    "service_time_params",
]

_consumer_ids = itertools.count()


class ConsumerState(enum.Enum):
    """Container lifecycle states."""

    STARTING = "starting"
    IDLE = "idle"
    BUSY = "busy"
    STOPPED = "stopped"


def lognormal_params(mean: float, cv: float) -> Tuple[float, float]:
    """``(mu, sigma)`` of the lognormal with the given mean and CV.

    Shared by the serial and batched service-time samplers so both
    parameterise the distribution with bit-identical doubles.
    """
    if not mean > 0:
        raise ValueError(f"mean service time must be positive, got {mean!r}")
    if not cv >= 0:
        raise ValueError(f"cv must be non-negative, got {cv!r}")
    sigma_sq = math.log(1.0 + cv * cv)
    if not math.isfinite(sigma_sq):  # cv * cv overflowed: draws would be NaN
        raise ValueError(f"cv too large for a lognormal, got {cv!r}")
    mu = math.log(mean) - sigma_sq / 2.0
    return mu, math.sqrt(sigma_sq)


def service_time_params(
    mean: float, cv: float
) -> Tuple[Optional[float], float, float]:
    """``(fixed, mu, sigma)``: how one task type's service times are drawn.

    Computed once per microservice, on either substrate.  ``cv=0``
    degenerates to the mean — ``fixed`` is that constant and nothing is
    ever drawn; otherwise ``fixed`` is ``None`` and ``(mu, sigma)``
    parameterise the lognormal.
    """
    mu, sigma = lognormal_params(mean, cv)  # validates mean and cv
    if isclose_zero(cv):
        return mean, 0.0, 0.0
    return None, mu, sigma


class Consumer:
    """One container processing task requests for a single microservice."""

    def __init__(self, microservice: "Microservice", node: "Node"):
        self.consumer_id = next(_consumer_ids)
        #: Run-local id used in trace records: the process-global
        #: ``consumer_id`` differs between same-seed runs in one process,
        #: which would break trace byte-reproducibility.
        self.trace_id: int = microservice.consumers_started
        self.microservice = microservice
        self.node = node
        self.state = ConsumerState.STARTING
        #: Simulation time of container creation (start-up latency origin).
        self.created_at: float = microservice.loop.now
        self.current_tag: Optional[DeliveryTag] = None
        self.current_request: Optional[TaskRequest] = None
        self.processing_started_at: float = 0.0
        #: Handle to the pending activation or finish event (for kills).
        self.pending_event: Optional[EventHandle] = None
        #: Entered in the microservice's busy index (crash victim search).
        self.busy_indexed = False
        # Lifetime counters.
        self.tasks_completed = 0
        self.busy_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Consumer(id={self.consumer_id}, "
            f"service={self.microservice.name!r}, state={self.state.value})"
        )
