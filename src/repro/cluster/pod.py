"""Pods: the smallest schedulable unit.

A pod carries one or more containers, each with resource *requests* (used by
the scheduler for placement).  The pod's workload — what it
actually does once running — is represented either by a fixed duration or by
a callable returning the duration, which is how the genomics runtime model
plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from repro.cluster.objects import ObjectMeta
from repro.cluster.quantity import Quantity, parse_cpu, parse_memory

__all__ = ["PodPhase", "ResourceRequirements", "Container", "PodSpec", "Pod", "WorkloadResult"]


class PodPhase(str, Enum):
    """Pod lifecycle phases (mirrors Kubernetes)."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"

    def is_terminal(self) -> bool:
        return self in (PodPhase.SUCCEEDED, PodPhase.FAILED)


@dataclass
class ResourceRequirements:
    """Requested quantities for one container."""

    requests: Quantity = field(default_factory=Quantity)

    @classmethod
    def of(cls, cpu: Union[str, int, float] = 0,
           memory: Union[str, int, float] = 0) -> "ResourceRequirements":
        return cls(requests=Quantity(cpu=parse_cpu(cpu), memory=parse_memory(memory)))


@dataclass
class WorkloadResult:
    """What a container's workload produced (duration plus artefacts)."""

    duration_s: float
    output: dict = field(default_factory=dict)
    error: Optional[str] = None


#: A workload is a fixed duration, or a callable taking the pod and returning
#: either a duration or a full :class:`WorkloadResult`.
Workload = Union[float, int, Callable[["Pod"], Union[float, WorkloadResult]]]


@dataclass
class Container:
    """One container in a pod."""

    name: str
    image: str = "busybox:latest"
    resources: ResourceRequirements = field(default_factory=ResourceRequirements)
    workload: Workload = 0.0
    startup_delay_s: float = 0.5

    def run_workload(self, pod: "Pod") -> WorkloadResult:
        """Evaluate the workload (called by the kubelet once the pod runs)."""
        if callable(self.workload):
            outcome = self.workload(pod)
        else:
            outcome = float(self.workload)
        if isinstance(outcome, WorkloadResult):
            return outcome
        return WorkloadResult(duration_s=float(outcome))


@dataclass
class PodSpec:
    """Desired state of a pod."""

    containers: list[Container] = field(default_factory=list)

    def total_requests(self) -> Quantity:
        total = Quantity()
        for container in self.containers:
            total = total + container.resources.requests
        return total


@dataclass
class Pod:
    """A pod object: metadata, spec and status."""

    metadata: ObjectMeta
    spec: PodSpec
    phase: PodPhase = PodPhase.PENDING
    node_name: Optional[str] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    message: str = ""
    results: list[WorkloadResult] = field(default_factory=list)

    KIND = "Pod"

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def is_scheduled(self) -> bool:
        return self.node_name is not None

    @property
    def is_terminal(self) -> bool:
        return self.phase.is_terminal()

    def total_requests(self) -> Quantity:
        return self.spec.total_requests()

    def output(self) -> dict:
        """Merged workload outputs from every container."""
        merged: dict = {}
        for result in self.results:
            merged.update(result.output)
        return merged
