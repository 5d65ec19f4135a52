"""Discrete-event emulation of the microservice workflow infrastructure.

This package substitutes the paper's physical testbed (3 GCP VMs running
Zookeeper, RabbitMQ, Docker and Kubernetes — Section V) with a faithful
discrete-event model:

- :mod:`repro.sim.events` — simulation clock and event heap,
- :mod:`repro.sim.queueing` — queue types (delivery tags, index FIFO),
- :mod:`repro.sim.tds` — the replicated Task Dependency Service,
- :mod:`repro.sim.cluster` — nodes, container placement, start-up latency,
- :mod:`repro.sim.microservice` — queue + consumer-pool microservices
  (RabbitMQ-style ack/redelivery),
- :mod:`repro.sim.invoker` — the workflow invoker of Fig. 1,
- :mod:`repro.sim.system` — the full system facade with 30 s time windows,
- :mod:`repro.sim.env` — the RL-style reset/step interface used by MIRAS,
- :mod:`repro.sim.batched` — the array-backed million-request substrate
  (semantics contract in docs/SIMULATOR.md).
"""

from repro.sim.batched import BatchedWorkflowSystem
from repro.sim.cluster import CapacityError, Cluster, Node
from repro.sim.env import MicroserviceEnv
from repro.sim.events import EventLoop, TypedEventLoop
from repro.sim.faults import ChaosInjector, crash_one_consumer
from repro.sim.metrics import WindowObservation
from repro.sim.microservice import BatchedMicroservice
from repro.sim.queueing import DeliveryTag, IndexFifo
from repro.sim.requests import RequestPool, TaskRequest, WorkflowRequest
from repro.sim.substrate import PrefetchStream, substrate_snapshot
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.sim.tds import (
    CompiledDependencyTable,
    TaskDependencyService,
    TdsUnavailableError,
)

__all__ = [
    "EventLoop",
    "TypedEventLoop",
    "ChaosInjector",
    "crash_one_consumer",
    "DeliveryTag",
    "IndexFifo",
    "TaskRequest",
    "WorkflowRequest",
    "RequestPool",
    "TaskDependencyService",
    "TdsUnavailableError",
    "CompiledDependencyTable",
    "Cluster",
    "Node",
    "CapacityError",
    "MicroserviceWorkflowSystem",
    "BatchedWorkflowSystem",
    "BatchedMicroservice",
    "PrefetchStream",
    "substrate_snapshot",
    "SystemConfig",
    "WindowObservation",
    "MicroserviceEnv",
]
