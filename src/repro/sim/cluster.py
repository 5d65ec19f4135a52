"""Cluster nodes and container placement (Kubernetes/GCP analog).

The paper's testbed is three identical VMs; Kubernetes "manages load
balancing of containers among the three machines".  We model nodes with a
unit-slot capacity (consumers have identical computational capacity per the
paper's resource model) and least-loaded placement, which is both what a
balanced scheduler converges to and optimal for unit-size items.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["Node", "Cluster", "CapacityError"]


class CapacityError(RuntimeError):
    """Raised when a placement would exceed the cluster's total slots."""


class Node:
    """One machine with a fixed number of consumer slots."""

    def __init__(self, node_id: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"node capacity must be >= 1, got {capacity}")
        self.node_id = node_id
        self.capacity = capacity
        self.used = 0

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def allocate(self) -> None:
        if self.used >= self.capacity:
            raise CapacityError(f"node {self.node_id} is full")
        self.used += 1

    def release(self) -> None:
        if self.used <= 0:
            raise RuntimeError(f"node {self.node_id} has no slot to release")
        self.used -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.node_id}, used={self.used}/{self.capacity})"


class Cluster:
    """A pool of nodes with least-loaded container placement."""

    def __init__(
        self,
        num_nodes: int = 3,
        node_capacity: int = 8,
        tracer: Optional[Tracer] = None,
    ):
        if num_nodes < 1:
            raise ValueError(f"need at least one node, got {num_nodes}")
        self.nodes: List[Node] = [Node(i, node_capacity) for i in range(num_nodes)]
        self._tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def total_capacity(self) -> int:
        return sum(node.capacity for node in self.nodes)

    @property
    def total_used(self) -> int:
        return sum(node.used for node in self.nodes)

    def place(self) -> Node:
        """Allocate one slot on the least-loaded node (ties: lowest id)."""
        best = min(self.nodes, key=lambda n: (n.used, n.node_id))
        if best.free <= 0:
            raise CapacityError(
                f"cluster full: {self.total_used}/{self.total_capacity} slots used"
            )
        best.allocate()
        if self._tracer.enabled:
            self._tracer.write({
                "kind": "event.placement", "t": None,
                "node": best.node_id, "used": best.used,
            })
        return best

    def place_many(self, count: int) -> List[Node]:
        """``count`` placements at once: the nodes :meth:`place` would
        have returned, call by call.

        Least-loaded placement takes the free slots in ``(level, node
        id)`` order — node ``i`` offers levels ``used_i, used_i + 1, ...``
        — so the first ``count`` of them, sorted, are the placements.
        """
        if self._tracer.enabled:  # one placement record per container
            return [self.place() for _ in range(count)]
        nodes = self.nodes
        slots = np.sort(np.concatenate([
            np.arange(node.used, min(node.capacity, node.used + count))
            * len(nodes) + index
            for index, node in enumerate(nodes)
        ]))[:count]
        if slots.size < count:
            raise CapacityError(
                f"cluster full: {self.total_used}/{self.total_capacity} slots "
                f"used, {count} requested"
            )
        chosen = slots % len(nodes)
        for node, placed in zip(nodes, np.bincount(chosen, minlength=len(nodes))):
            node.used += int(placed)
        return [nodes[index] for index in chosen.tolist()]

    def release(self, node: Node) -> None:
        """Free one slot previously obtained from :meth:`place`."""
        node.release()
        if self._tracer.enabled:
            self._tracer.write({
                "kind": "event.release", "t": None,
                "node": node.node_id, "used": node.used,
            })

    def load_by_node(self) -> Dict[int, int]:
        """Used slots per node (for load-balance assertions)."""
        return {node.node_id: node.used for node in self.nodes}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={len(self.nodes)}, "
            f"used={self.total_used}/{self.total_capacity})"
        )
