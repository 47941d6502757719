"""One LIDC-enabled cluster: the full per-site stack of Figures 3 and 4.

A :class:`LIDCCluster` bundles, for one site:

* the Kubernetes-equivalent :class:`~repro.cluster.cluster.Cluster`;
* a *gateway NFD* (an NDN forwarder exposed through a NodePort service) that
  external clients and the wide-area overlay connect to;
* a *data-lake NFD* with the PVC-backed :class:`~repro.datalake.repo.DataLake`
  and its :class:`~repro.datalake.fileserver.FileServer` behind the
  ``dl-nfd.ndnk8s.svc.cluster.local`` service name;
* the :class:`~repro.core.gateway.Gateway` application answering
  ``/ndn/k8s/compute`` and ``/ndn/k8s/status``;
* a :class:`~repro.ndn.routing.RoutingDaemon` announcing the cluster's
  prefixes into the overlay.

Prefix registrations inside the gateway NFD mirror the paper exactly:
``/ndn/k8s/data`` points at the data lake's NFD, while ``/ndn/k8s/compute``
and ``/ndn/k8s/status`` are handled by the gateway on the node itself.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.pod import Container, PodSpec
from repro.cluster.service import ServiceType
from repro.core import naming
from repro.core.gateway import Gateway
from repro.core.service import ServiceDefinition, ServiceRegistry, ServiceRuntime
from repro.datalake.fileserver import FileServer
from repro.datalake.loader import DataLoadingTool
from repro.datalake.repo import DataLake
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sra import SraRegistry
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.routing import RoutingDaemon
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.topology import Link
from repro.sim.trace import Tracer

__all__ = ["LIDCCluster"]

#: Prefixes every LIDC cluster announces into the overlay.
ANNOUNCED_PREFIXES = (naming.COMPUTE_PREFIX, naming.STATUS_PREFIX, naming.DATA_PREFIX)


class LIDCCluster:
    """A complete LIDC deployment on one compute cluster."""

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        registry: Optional[SraRegistry] = None,
        runtime_model: Optional[BlastRuntimeModel] = None,
        enable_result_cache: bool = False,
        reject_when_busy: bool = True,
        cs_capacity: int = 4096,
        datalake_size: str = "500Gi",
        load_paper_datasets: bool = True,
        load_synthetic_datasets: bool = False,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        services: Optional[ServiceRegistry] = None,
        gateway_shards: int = 1,
        gateway_shard_weights: Optional[tuple] = None,
        gateway_hot_cache: int = 128,
    ) -> None:
        self.env = env
        self.spec = spec
        self.name = spec.name
        self.registry = registry if registry is not None else SraRegistry()
        self.runtime_model = runtime_model or BlastRuntimeModel(registry=self.registry)
        self.tracer = tracer or Tracer(clock=lambda: env.now)

        # -- orchestrator -------------------------------------------------------
        self.cluster = Cluster(env, spec)

        # -- NDN forwarders ------------------------------------------------------
        if gateway_shards > 1:
            # A sharded gateway data plane: the /ndn/k8s namespace shares
            # its first components, so partition on the fourth (application
            # for compute, dataset for data) — deep enough to spread load,
            # shallow enough that every prefix-matched exchange stays on
            # one shard (see the repro.ndn.shard partitioning contract).
            self.gateway_nfd: "Forwarder | ShardedForwarder" = ShardedForwarder(
                env, name=f"{spec.name}-gw-nfd", shards=gateway_shards,
                key_depth=4, cs_capacity=cs_capacity,
                tracer=self.tracer, shard_weights=gateway_shard_weights,
                hot_cache=gateway_hot_cache,
            )
        else:
            self.gateway_nfd = Forwarder(
                env, name=f"{spec.name}-gw-nfd", cs_capacity=cs_capacity,
                tracer=self.tracer,
            )
        self.datalake_nfd = Forwarder(
            env, name=f"{spec.name}-dl-nfd", cs_capacity=cs_capacity,
            cache_unsolicited=True, tracer=self.tracer,
        )
        intra_link = Link(f"{spec.name}-gw", f"{spec.name}-dl",
                          latency_s=0.0005, bandwidth_bps=10e9)
        self._gw_to_dl, self._dl_to_gw = connect(
            env, self.gateway_nfd, self.datalake_nfd, link=intra_link,
            label=f"{spec.name}:gw<->dl",
        )
        # Paper §IV: the gateway NFD has a prefix registration for /ndn/k8s/data
        # pointing at the data lake's NFD.
        self.gateway_nfd.register_prefix(naming.DATA_PREFIX, self._gw_to_dl)

        # -- data lake --------------------------------------------------------------
        self.loader = DataLoadingTool(self.cluster, registry=self.registry, seed=seed)
        self.datalake = self.loader.create_datalake(
            pvc_name="datalake-pvc", size=datalake_size, lake_name=f"{spec.name}-datalake"
        )
        if load_paper_datasets:
            self.loader.load_paper_datasets(self.datalake)
        if load_synthetic_datasets:
            self.loader.load_synthetic_datasets(self.datalake)
        self.fileserver = FileServer(env, self.datalake_nfd, self.datalake)

        # -- gateway application -------------------------------------------------------
        # One declarative service registry per site: the schema, validator,
        # runner and cache policy of every application, wired to this
        # cluster's SRA registry and calibrated runtime model.
        self.services = services or ServiceRegistry.with_defaults(
            runtime=ServiceRuntime(
                sra_registry=self.registry, runtime_model=self.runtime_model,
                clock=lambda: env.now,
            )
        )
        self.gateway = Gateway(
            env,
            cluster=self.cluster,
            forwarder=self.gateway_nfd,
            datalake=self.datalake,
            services=self.services,
            enable_result_cache=enable_result_cache,
            reject_when_busy=reject_when_busy,
            tracer=self.tracer,
        )

        # -- Kubernetes objects mirroring the deployment (Fig. 3) -------------------------
        self._deploy_system_pods()

        # -- routing daemon for the overlay ----------------------------------------------
        self.routing = RoutingDaemon(self.gateway_nfd, node_name=spec.name)
        # The gateway NFD keeps the default best-route strategy: its local
        # producer face has cost 0, so requests that reach this cluster are
        # served here unless the gateway NACKs them (capacity), in which case
        # the downstream router retries another cluster.

    # ------------------------------------------------------------------ system pods

    def _deploy_system_pods(self) -> None:
        """Create the Deployments/Services for the NFD gateway, data-lake NFD and file server."""
        nfd_template = PodSpec(containers=[Container(
            name="nfd", image="ndn/nfd:latest", workload=math.inf, startup_delay_s=0.2
        )])
        fileserver_template = PodSpec(containers=[Container(
            name="fileserver", image="lidc/fileserver:latest", workload=math.inf, startup_delay_s=0.2
        )])
        self.cluster.create_deployment(nfd_template, name="gateway-nfd", replicas=1)
        self.cluster.create_deployment(nfd_template, name="dl-nfd", replicas=1)
        self.cluster.create_deployment(fileserver_template, name="fileserver", replicas=1)
        # NodePort service exposing the gateway NFD to external NDN clients.
        self.nodeport_service = self.cluster.create_service(
            "gateway-nfd", selector={"app": "gateway-nfd"}, port=6363,
            service_type=ServiceType.NODE_PORT,
        )
        # ClusterIP service giving the data-lake NFD its DNS name.
        self.datalake_service = self.cluster.create_service(
            "dl-nfd", selector={"app": "dl-nfd"}, port=6363,
            service_type=ServiceType.CLUSTER_IP,
        )

    # ------------------------------------------------------------------ overlay membership

    def announce_prefixes(self, cost: float = 0.0) -> None:
        """Advertise this cluster's LIDC prefixes into the overlay."""
        for prefix in ANNOUNCED_PREFIXES:
            self.routing.announce(prefix, cost=cost)

    def withdraw_prefixes(self) -> None:
        """Withdraw every announced prefix (cluster leaving the overlay)."""
        for prefix in ANNOUNCED_PREFIXES:
            self.routing.withdraw(prefix)

    # ------------------------------------------------------------------ service plane

    def register_service(self, definition: ServiceDefinition) -> ServiceDefinition:
        """Install a new application on this cluster's gateway."""
        return self.services.register(definition)

    # ------------------------------------------------------------------ convenience

    @property
    def node_port(self) -> Optional[int]:
        """The NodePort through which external clients reach the gateway NFD."""
        return self.nodeport_service.node_port

    def datalake_dns_name(self) -> str:
        """The cluster DNS name of the data-lake NFD service."""
        return self.datalake_service.dns_name

    def utilization(self) -> dict[str, float]:
        return self.cluster.utilization()

    def active_jobs(self) -> int:
        return self.gateway.active_job_count()

    @staticmethod
    def _face_totals(face_stats: dict[int, dict[str, int]]) -> dict[str, int]:
        totals = {"bytes_in": 0, "bytes_out": 0, "drops": 0}
        for counters in face_stats.values():
            totals["bytes_in"] += counters["bytes_in"]
            totals["bytes_out"] += counters["bytes_out"]
            totals["drops"] += counters["drops"]
        return totals

    def transport_stats(self) -> dict[str, dict[str, int]]:
        """Wire-level transport totals, reported per NFD — and per shard.

        Bytes are ``len(wire)`` of the buffers that crossed each face;
        ``drops`` counts packets discarded on down faces, so experiments can
        report loss instead of silently eating packets.  Totals are kept
        separate per forwarder because the intra-site gw↔dl link appears in
        both — summing the two would double-count internal traffic as site
        ingress/egress.  When the gateway runs a sharded data plane
        (``gateway_shards > 1``), each shard additionally reports under
        ``gateway_nfd/shard<i>`` — those totals count the shard's boundary
        and producer faces, i.e. the wire bytes the shard itself handled —
        and ``gateway_nfd/hot_cache`` carries the dispatcher fast-path
        counters (hits there are exchanges the shards never saw, which is
        why shard byte totals can undercount repeat-name traffic).
        """
        report: dict[str, dict[str, int]] = {}
        for key, nfd in (("gateway_nfd", self.gateway_nfd), ("datalake_nfd", self.datalake_nfd)):
            report[key] = self._face_totals(nfd.face_stats())
        if isinstance(self.gateway_nfd, ShardedForwarder):
            for index, shard in enumerate(self.gateway_nfd.shards):
                report[f"gateway_nfd/shard{index}"] = self._face_totals(shard.face_stats())
            if self.gateway_nfd.hot_cache is not None:
                report["gateway_nfd/hot_cache"] = self.gateway_nfd.hot_cache.stats()
        return report

    def stats(self) -> dict[str, object]:
        return {
            "name": self.name,
            "cluster": self.cluster.stats(),
            "gateway": self.gateway.stats(),
            "datalake": self.datalake.stats(),
            "gateway_nfd": self.gateway_nfd.stats(),
            "datalake_nfd": self.datalake_nfd.stats(),
            "transport": self.transport_stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LIDCCluster {self.name} nodes={self.spec.node_count}>"
