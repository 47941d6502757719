"""Cluster DNS (the CoreDNS add-on of the paper's MicroK8s deployment).

Resolves ``<service>.<namespace>.svc.cluster.local`` names to the service's
ClusterIP and to the names of the pods backing it — the mechanism by which
the gateway reaches named service endpoints such as
``dl-nfd.ndnk8s.svc.cluster.local``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ClusterError
from repro.cluster.apiserver import ApiServer
from repro.cluster.service import Service

__all__ = ["DnsRecord", "ClusterDNS"]

CLUSTER_DOMAIN = "cluster.local"


@dataclass(frozen=True)
class DnsRecord:
    """The answer to a DNS query."""

    cluster_ip: str
    endpoints: tuple[str, ...]


class ClusterDNS:
    """Service-name resolution backed by the API server."""

    def __init__(self, api: ApiServer) -> None:
        self.api = api
        self.queries = 0
        self.failures = 0

    def _parse(self, fqdn: str) -> tuple[str, str]:
        suffix = f".svc.{CLUSTER_DOMAIN}"
        if fqdn.endswith(suffix):
            head = fqdn[: -len(suffix)]
            parts = head.split(".")
            if len(parts) == 2:
                return parts[0], parts[1]
        # Short forms: "name" or "name.namespace".
        parts = fqdn.split(".")
        if len(parts) == 1:
            return parts[0], "ndnk8s"
        if len(parts) == 2:
            return parts[0], parts[1]
        raise ClusterError(f"cannot parse DNS name {fqdn!r}")

    def resolve(self, fqdn: str) -> DnsRecord:
        """Resolve a service DNS name; raises :class:`ClusterError` when unknown."""
        self.queries += 1
        service_name, namespace = self._parse(fqdn)
        service: Optional[Service] = self.api.try_get(Service.KIND, service_name, namespace)
        if service is None:
            self.failures += 1
            raise ClusterError(f"DNS: no service for {fqdn!r}")
        return DnsRecord(cluster_ip=service.cluster_ip,
                         endpoints=tuple(service.endpoints.addresses))
