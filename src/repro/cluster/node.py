"""Cluster nodes: capacity, allocatable resources and conditions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from repro.cluster.objects import ObjectMeta
from repro.cluster.quantity import Quantity, parse_cpu, parse_memory

__all__ = ["NodeStatus", "Node"]


class NodeStatus(str, Enum):
    """Node readiness."""

    READY = "Ready"
    NOT_READY = "NotReady"
    CORDONED = "Cordoned"


@dataclass
class Node:
    """A worker (or combined control-plane/worker) machine."""

    metadata: ObjectMeta
    capacity: Quantity = field(default_factory=lambda: Quantity(cpu=4.0, memory=16 * 1024 ** 3))
    status: NodeStatus = NodeStatus.READY
    #: System reservation subtracted from capacity to obtain allocatable.
    system_reserved: Quantity = field(default_factory=lambda: Quantity(cpu=0.25, memory=512 * 1024 ** 2))

    KIND = "Node"

    @classmethod
    def build(cls, name: str, cpu: Union[str, int, float] = 4,
              memory: Union[str, int, float] = "16Gi",
              labels: "dict[str, str] | None" = None) -> "Node":
        """Convenience constructor with quantity parsing."""
        return cls(
            metadata=ObjectMeta(name=name, labels=dict(labels or {})),
            capacity=Quantity(cpu=parse_cpu(cpu), memory=parse_memory(memory)),
        )

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def allocatable(self) -> Quantity:
        """Capacity minus the system reservation."""
        remaining = self.capacity - self.system_reserved
        return Quantity(cpu=max(0.0, remaining.cpu), memory=max(0, remaining.memory))

    @property
    def is_schedulable(self) -> bool:
        return self.status == NodeStatus.READY

    def cordon(self) -> None:
        """Mark the node unschedulable (existing pods keep running)."""
        self.status = NodeStatus.CORDONED

    def uncordon(self) -> None:
        self.status = NodeStatus.READY

    def mark_not_ready(self) -> None:
        self.status = NodeStatus.NOT_READY

    def matches_selector(self, selector: "dict[str, str]") -> bool:
        """True when the node's labels satisfy a pod's node selector."""
        return all(self.metadata.labels.get(key) == value for key, value in selector.items())
