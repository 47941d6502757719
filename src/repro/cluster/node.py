"""Cluster nodes: capacity and allocatable resources.

A node has no readiness states: every node of a cluster takes pods for the
whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.cluster.objects import ObjectMeta
from repro.cluster.quantity import Quantity, parse_cpu, parse_memory

__all__ = ["Node"]

#: System reservation subtracted from capacity to obtain allocatable.
SYSTEM_RESERVED = Quantity(cpu=0.25, memory=512 * 1024 ** 2)


@dataclass
class Node:
    """A worker (or combined control-plane/worker) machine."""

    metadata: ObjectMeta
    capacity: Quantity

    KIND = "Node"

    @classmethod
    def build(cls, name: str, cpu: Union[str, int, float] = 4,
              memory: Union[str, int, float] = "16Gi") -> "Node":
        """Convenience constructor with quantity parsing."""
        return cls(
            metadata=ObjectMeta(name=name),
            capacity=Quantity(cpu=parse_cpu(cpu), memory=parse_memory(memory)),
        )

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def allocatable(self) -> Quantity:
        """Capacity minus the system reservation."""
        remaining = self.capacity - SYSTEM_RESERVED
        return Quantity(cpu=max(0.0, remaining.cpu), memory=max(0, remaining.memory))
