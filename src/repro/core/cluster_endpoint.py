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
from repro.core.service import ServiceRegistry
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
#: Content Store capacity of the gateway and data-lake NFDs, in packets.
CS_CAPACITY = 4096


class LIDCCluster:
    """A complete LIDC deployment on one compute cluster."""

    def __init__(
        self,
        env: Environment,
        spec: ClusterSpec,
        registry: Optional[SraRegistry] = None,
        runtime_model: Optional[BlastRuntimeModel] = None,
        enable_result_cache: bool = False,
        load_paper_datasets: bool = True,
        load_synthetic_datasets: bool = False,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        gateway_shards: int = 1,
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
            # for compute, dataset for data) — deep enough to spread load;
            # an Interest and its Data carry one name, so every exchange
            # stays on one shard (see the repro.ndn.shard partitioning
            # contract).
            self.gateway_nfd: "Forwarder | ShardedForwarder" = ShardedForwarder(
                env, name=f"{spec.name}-gw-nfd", shards=gateway_shards,
                key_depth=4, cs_capacity=CS_CAPACITY, tracer=self.tracer,
            )
        else:
            self.gateway_nfd = Forwarder(
                env, name=f"{spec.name}-gw-nfd", cs_capacity=CS_CAPACITY,
                tracer=self.tracer,
            )
        self.datalake_nfd = Forwarder(
            env, name=f"{spec.name}-dl-nfd", cs_capacity=CS_CAPACITY, tracer=self.tracer,
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
            pvc_name="datalake-pvc", lake_name=f"{spec.name}-datalake"
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
        self.services = ServiceRegistry.with_defaults(self.registry, self.runtime_model)
        self.gateway = Gateway(
            env,
            cluster=self.cluster,
            forwarder=self.gateway_nfd,
            datalake=self.datalake,
            services=self.services,
            enable_result_cache=enable_result_cache,
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
        self.cluster.create_deployment(nfd_template, name="gateway-nfd")
        self.cluster.create_deployment(nfd_template, name="dl-nfd")
        self.cluster.create_deployment(fileserver_template, name="fileserver")
        # NodePort service exposing the gateway NFD to external NDN clients.
        self.nodeport_service = self.cluster.create_service(
            "gateway-nfd", selector={"app": "gateway-nfd"}, service_type=ServiceType.NODE_PORT,
        )
        # ClusterIP service giving the data-lake NFD its DNS name.
        self.datalake_service = self.cluster.create_service(
            "dl-nfd", selector={"app": "dl-nfd"}, service_type=ServiceType.CLUSTER_IP,
        )

    # ------------------------------------------------------------------ overlay membership

    def announce_prefixes(self) -> None:
        """Advertise this cluster's LIDC prefixes into the overlay."""
        for prefix in ANNOUNCED_PREFIXES:
            self.routing.announce(prefix)

    def withdraw_prefixes(self) -> None:
        """Withdraw every announced prefix (cluster leaving the overlay)."""
        for prefix in ANNOUNCED_PREFIXES:
            self.routing.withdraw(prefix)

    # ------------------------------------------------------------------ convenience

    @property
    def node_port(self) -> Optional[int]:
        """The NodePort through which external clients reach the gateway NFD."""
        return self.nodeport_service.node_port

    def utilization(self) -> dict[str, float]:
        return self.cluster.utilization()

    def active_jobs(self) -> int:
        return self.gateway.active_job_count()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LIDCCluster {self.name} nodes={self.spec.node_count}>"
