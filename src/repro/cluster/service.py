"""Services: stable virtual endpoints in front of pods.

Two service types matter to LIDC (paper Fig. 3):

* ``ClusterIP`` — the in-cluster DNS name (e.g.
  ``dl-nfd.ndnk8s.svc.cluster.local``) that the gateway uses to reach the
  data-lake NFD and the file server;
* ``NodePort`` — the externally reachable port (30000–32767) through which
  outside NDN clients connect to the gateway NFD.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.exceptions import ClusterError
from repro.cluster.apiserver import ApiServer, WatchEvent
from repro.cluster.objects import LabelSelector, ObjectMeta
from repro.cluster.pod import Pod, PodPhase

__all__ = ["ServiceType", "Endpoints", "Service", "ServiceController"]

NODE_PORT_RANGE = (30000, 32767)


class ServiceType(str, Enum):
    CLUSTER_IP = "ClusterIP"
    NODE_PORT = "NodePort"


@dataclass
class Endpoints:
    """The pods currently backing a service."""

    #: Names of the selected Running pods, sorted; they act as addresses.
    addresses: list[str] = field(default_factory=list)


@dataclass
class Service:
    """A Service object on the NDN port (6363)."""

    metadata: ObjectMeta
    selector: LabelSelector
    service_type: ServiceType
    cluster_ip: str
    #: The allocated external port of a ``NodePort`` service.
    node_port: Optional[int] = None
    endpoints: Endpoints = field(default_factory=Endpoints, init=False)

    KIND = "Service"

    @property
    def dns_name(self) -> str:
        """The cluster DNS name of this service."""
        return f"{self.metadata.name}.{self.metadata.namespace}.svc.cluster.local"


class ServiceController:
    """Allocates cluster IPs / node ports and keeps endpoints in sync."""

    def __init__(self, api: ApiServer) -> None:
        self.api = api
        self._next_ip_octet = 1
        self._next_node_port = NODE_PORT_RANGE[0]
        api.watch(Service.KIND, self._on_service_event, replay_existing=True)
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=False)

    # -- creation ------------------------------------------------------------------

    def create_service(self, name: str, selector: "dict[str, str]",
                       service_type: ServiceType = ServiceType.CLUSTER_IP) -> Service:
        """Create a Service and allocate its virtual IP (and NodePort if asked)."""
        service = Service(
            metadata=ObjectMeta(name=name, namespace="ndnk8s"),
            selector=LabelSelector.from_dict(selector),
            service_type=service_type,
            cluster_ip=self._allocate_cluster_ip(),
            node_port=self._allocate_node_port() if service_type == ServiceType.NODE_PORT else None,
        )
        self.api.create(Service.KIND, service)
        return service

    def _allocate_cluster_ip(self) -> str:
        octet = self._next_ip_octet
        self._next_ip_octet += 1
        return f"10.152.{octet // 256}.{octet % 256}"

    def _allocate_node_port(self) -> int:
        port = self._next_node_port
        if port > NODE_PORT_RANGE[1]:
            raise ClusterError("node port range exhausted")
        self._next_node_port += 1
        return port

    # -- endpoint maintenance ------------------------------------------------------------

    def _on_service_event(self, event: WatchEvent) -> None:
        # The one listing of the pods: a new Service starts from the pods
        # already running; from then on its own pod watch keeps it current.
        service: Service = event.obj
        service.endpoints.addresses = sorted(
            pod.name
            for pod in self.api.list(Pod.KIND, namespace=service.metadata.namespace)
            if service.selector.matches(pod.metadata) and pod.phase == PodPhase.RUNNING
        )

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        running = pod.phase == PodPhase.RUNNING
        for service in self.api.list(Service.KIND, namespace=pod.metadata.namespace):
            if not service.selector.matches(pod.metadata):
                continue
            addresses = service.endpoints.addresses
            if running and pod.name not in addresses:
                bisect.insort(addresses, pod.name)
            elif not running and pod.name in addresses:
                addresses.remove(pod.name)
