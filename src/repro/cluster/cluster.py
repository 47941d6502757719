"""The Cluster facade: one object wiring the whole orchestrator together.

A :class:`Cluster` is the reproduction's equivalent of one MicroK8s
installation from the paper's testbed: an API server, nodes with kubelets, a
scheduler, the Job / Deployment / Service controllers, cluster DNS and the
storage controller with its NFS server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.exceptions import ClusterError
from repro.cluster.apiserver import ApiServer
from repro.cluster.deployment import Deployment, DeploymentController
from repro.cluster.dns import ClusterDNS
from repro.cluster.job import Job, JobController
from repro.cluster.kubelet import Kubelet
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.cluster.quantity import Quantity
from repro.cluster.scheduler import Scheduler
from repro.cluster.service import Service, ServiceController, ServiceType
from repro.cluster.storage import NFSServer, PersistentVolumeClaim, StorageController
from repro.sim.engine import Environment

__all__ = ["ClusterSpec", "Cluster"]


@dataclass
class ClusterSpec:
    """Declarative description of a cluster (size, location, node shape)."""

    name: str
    region: str = "us-central1"
    node_count: int = 1
    node_cpu: Union[str, int, float] = 8
    node_memory: Union[str, int] = "32Gi"


class Cluster:
    """One orchestrated compute cluster."""

    def __init__(self, env: Environment, spec: ClusterSpec) -> None:
        self.env = env
        self.name = spec.name
        self.region = spec.region
        self.api = ApiServer(clock=lambda: env.now)
        self.scheduler = Scheduler(self.api)
        self.nfs = NFSServer(name=f"{spec.name}-nfs")
        self.storage = StorageController(self.api, self.nfs)
        self.jobs = JobController(env, self.api)
        self.deployments = DeploymentController(env, self.api)
        self.services = ServiceController(self.api)
        self.dns = ClusterDNS(self.api)
        self._kubelets: dict[str, Kubelet] = {}
        for index in range(spec.node_count):
            self.add_node(
                name=f"{spec.name}-node-{index}",
                cpu=spec.node_cpu,
                memory=spec.node_memory,
            )

    # -- nodes ---------------------------------------------------------------------

    def add_node(self, name: str, cpu: Union[str, int, float] = 8,
                 memory: Union[str, int] = "32Gi") -> Node:
        """Add a worker node with its kubelet."""
        if name in self._kubelets:
            raise ClusterError(f"node {name!r} already exists in cluster {self.name}")
        node = Node.build(name=name, cpu=cpu, memory=memory)
        self.api.create(Node.KIND, node)
        self._kubelets[name] = Kubelet(self.env, self.api, node)
        return node

    def nodes(self) -> list[Node]:
        return self.api.list(Node.KIND)

    # -- capacity ------------------------------------------------------------------------

    def total_allocatable(self) -> Quantity:
        total = Quantity()
        for node in self.nodes():
            total = total + node.allocatable
        return total

    def free_capacity(self) -> Quantity:
        free = Quantity()
        for node in self.nodes():
            free = free + self.scheduler.node_free_capacity(node)
        return free

    def can_fit(self, requests: Quantity) -> bool:
        """True when some single node could accept a pod with ``requests``."""
        for node in self.nodes():
            if requests.fits_within(self.scheduler.node_free_capacity(node)):
                return True
        return False

    def utilization(self) -> dict[str, float]:
        """Cluster-wide CPU and memory utilisation fractions."""
        total = self.total_allocatable()
        free = self.free_capacity()
        return {
            "cpu": 1.0 - (free.cpu / total.cpu if total.cpu else 0.0),
            "memory": 1.0 - (free.memory / total.memory if total.memory else 0.0),
        }

    # -- workload helpers -------------------------------------------------------------------

    def create_job(self, template: PodSpec, name: str,
                   labels: "dict[str, str] | None" = None) -> Job:
        """Create a run-to-completion Job of one pod from a pod template."""
        return self.jobs.create_job(template, name=name, labels=labels)

    def create_deployment(self, template: PodSpec, name: str) -> Deployment:
        return self.deployments.create_deployment(template, name=name)

    def create_service(self, name: str, selector: "dict[str, str]",
                       service_type: ServiceType = ServiceType.CLUSTER_IP) -> Service:
        return self.services.create_service(name=name, selector=selector,
                                            service_type=service_type)

    def create_pvc(self, name: str) -> PersistentVolumeClaim:
        return self.storage.create_pvc(name=name)

    # -- queries ---------------------------------------------------------------------------------

    def running_pods(self) -> list[Pod]:
        return [pod for pod in self.api.list(Pod.KIND) if pod.phase == PodPhase.RUNNING]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cluster {self.name} nodes={len(self._kubelets)} region={self.region}>"
