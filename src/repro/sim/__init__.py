"""Discrete-event emulation of the microservice workflow infrastructure.

This package substitutes the paper's physical testbed (3 GCP VMs running
Zookeeper, RabbitMQ, Docker and Kubernetes — Section V) with a
discrete-event model of what reaches the work in progress w(k):

- :mod:`repro.sim.events` — simulation clock and event heap,
- :mod:`repro.sim.queueing` — queue types (delivery tags, index FIFO),
- :mod:`repro.sim.tds` — the Task Dependency Service's dependency tables,
- :mod:`repro.sim.consumer` — consumer containers and their start-up latency,
- :mod:`repro.sim.microservice` — queue + consumer-pool microservices
  (RabbitMQ-style ack/redelivery),
- :mod:`repro.sim.faults` — consumer-crash injection,
- :mod:`repro.sim.invoker` — the workflow invoker of Fig. 1,
- :mod:`repro.sim.system` — the full system facade with 30 s time windows,
- :mod:`repro.sim.env` — the RL-style reset/step interface used by MIRAS,
- :mod:`repro.sim.batched` — the array-backed million-request substrate
  (semantics contract in docs/SIMULATOR.md).
"""

from repro.sim.batched import BatchedWorkflowSystem
from repro.sim.env import MicroserviceEnv
from repro.sim.events import EventLoop, TypedEventLoop
from repro.sim.faults import ChaosInjector
from repro.sim.metrics import WindowObservation
from repro.sim.microservice import BatchedMicroservice
from repro.sim.queueing import DeliveryTag, IndexFifo
from repro.sim.requests import RequestPool, TaskRequest, WorkflowRequest
from repro.sim.substrate import PrefetchStream, substrate_snapshot
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.sim.tds import CompiledDependencyTable

__all__ = [
    "EventLoop",
    "TypedEventLoop",
    "ChaosInjector",
    "DeliveryTag",
    "IndexFifo",
    "TaskRequest",
    "WorkflowRequest",
    "RequestPool",
    "CompiledDependencyTable",
    "MicroserviceWorkflowSystem",
    "BatchedWorkflowSystem",
    "BatchedMicroservice",
    "PrefetchStream",
    "substrate_snapshot",
    "SystemConfig",
    "WindowObservation",
    "MicroserviceEnv",
]
