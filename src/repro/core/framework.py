"""The LIDC testbed builder: one call from nothing to a running deployment.

:class:`LIDCTestbed` assembles the pieces (simulation environment, overlay,
clusters, access routers, SRA registry, runtime model) into the deployments
the paper describes:

* :meth:`LIDCTestbed.single_cluster` — the paper's default setup (§III-C:
  "By default, the LIDC is setup with a single Kubernetes node.  This node is
  the gateway to the cluster"), plus a client edge router;
* :meth:`LIDCTestbed.multi_cluster` — N clusters joined through a client edge
  router (star) or a chain, for the multi-cluster experiments.

What varies between experiments is in :class:`TestbedConfig` and the
arguments of :meth:`LIDCTestbed.add_cluster`; what never does is a module
constant (wide-area latency and bandwidth, the region rotation).  Poll
interval and retry policy belong to the client
(``testbed.client(poll_interval_s=...)``) and hold for every job it submits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.client import JobOutcome, LIDCClient
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.overlay import ComputeOverlay
from repro.core.service import ServiceDefinition
from repro.core.spec import ComputeRequest
from repro.exceptions import LIDCError, OverlayError
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sra import SraRegistry
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.sim.trace import Tracer

__all__ = ["TestbedConfig", "LIDCTestbed"]

#: Default client access-router name.
CLIENT_EDGE = "client-edge"
#: Latency of a wide-area link, in seconds, unless ``add_cluster`` is given one.
WAN_LATENCY_S = 0.02
#: Bandwidth of every wide-area link, in bytes per second.
WAN_BANDWIDTH_BPS = 1e9
#: Regions assigned to clusters round robin, in the order they are added.
REGIONS = (
    "us-central1", "us-east1", "europe-west1", "asia-east1",
    "us-west1", "europe-north1", "asia-south1", "australia-southeast1",
)


def _cluster_name(index: int) -> str:
    """The automatic name of the ``index``-th cluster: cluster-a … cluster-z, cluster-a1 …"""
    return f"cluster-{chr(ord('a') + index % 26)}{index // 26 or ''}"


@dataclass
class TestbedConfig:
    """Knobs shared by every testbed topology."""

    seed: int = 0
    node_count: int = 1
    node_cpu: float = 8
    node_memory: str = "32Gi"
    enable_result_cache: bool = False
    load_paper_datasets: bool = True
    load_synthetic_datasets: bool = False


class LIDCTestbed:
    """A fully wired LIDC deployment inside one simulation environment."""

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        self.env = Environment()
        self.rng = SeededRNG(self.config.seed)
        self.tracer = Tracer(clock=lambda: self.env.now)
        self.registry = SraRegistry()
        self.runtime_model = BlastRuntimeModel(registry=self.registry, rng=self.rng)
        self.overlay = ComputeOverlay(self.env, tracer=self.tracer)
        self.overlay.add_access_router(CLIENT_EDGE)
        #: Clusters added so far; the next cluster's seed and region index.
        self._cluster_counter = 0
        #: Extra services registered testbed-wide; applied to every cluster,
        #: including ones added after the registration.
        self._extra_services: list[ServiceDefinition] = []

    # ------------------------------------------------------------------ construction

    @classmethod
    def single_cluster(cls, seed: int = 0, **config_kwargs) -> "LIDCTestbed":
        """One cluster behind one client edge router (the paper's default)."""
        testbed = cls(TestbedConfig(seed=seed, **config_kwargs))
        testbed.add_cluster()
        return testbed

    @classmethod
    def multi_cluster(cls, cluster_count: int, seed: int = 0, topology: str = "star",
                      latencies_s: Optional[Sequence[float]] = None,
                      **config_kwargs) -> "LIDCTestbed":
        """``cluster_count`` clusters in a star (around the client edge) or chain."""
        if cluster_count < 1:
            raise LIDCError("multi_cluster needs at least one cluster")
        testbed = cls(TestbedConfig(seed=seed, **config_kwargs))
        previous = CLIENT_EDGE
        for index in range(cluster_count):
            latency = None
            if latencies_s is not None and index < len(latencies_s):
                latency = latencies_s[index]
            if topology == "star":
                testbed.add_cluster(connect_to=CLIENT_EDGE, latency_s=latency)
            elif topology == "chain":
                previous = testbed.add_cluster(connect_to=previous, latency_s=latency).name
            else:
                raise LIDCError(f"unknown testbed topology {topology!r}")
        return testbed

    def add_cluster(
        self,
        name: Optional[str] = None,
        connect_to: Optional[str] = CLIENT_EDGE,
        latency_s: Optional[float] = None,
        node_count: Optional[int] = None,
        node_cpu: Optional[float] = None,
        node_memory: Optional[str] = None,
    ) -> LIDCCluster:
        """Create a new LIDC cluster and attach it to the overlay.

        Without ``name`` the cluster takes the first free ``cluster-<x>``
        name from its own index on; a name already in the overlay is refused
        before anything is built.
        """
        config = self.config
        index = self._cluster_counter
        taken = set(self.overlay.node_names())
        if name is None:
            name = next(candidate for candidate in map(_cluster_name, itertools.count(index))
                        if candidate not in taken)
        elif name in taken:
            raise OverlayError(f"overlay node {name!r} already exists")
        self._cluster_counter += 1
        spec = ClusterSpec(
            name=name,
            region=REGIONS[index % len(REGIONS)],
            node_count=node_count if node_count is not None else config.node_count,
            node_cpu=node_cpu if node_cpu is not None else config.node_cpu,
            node_memory=node_memory if node_memory is not None else config.node_memory,
        )
        cluster = LIDCCluster(
            self.env,
            spec,
            registry=self.registry,
            runtime_model=self.runtime_model,
            enable_result_cache=config.enable_result_cache,
            load_paper_datasets=config.load_paper_datasets,
            load_synthetic_datasets=config.load_synthetic_datasets,
            seed=config.seed + index,
            tracer=self.tracer,
        )
        for definition in self._extra_services:
            cluster.services.register(definition)
        connections = []
        if connect_to is not None:
            connections = [(connect_to, latency_s if latency_s is not None else WAN_LATENCY_S)]
        self.overlay.add_cluster(cluster, connect_to=connections, bandwidth_bps=WAN_BANDWIDTH_BPS)
        return cluster

    # ------------------------------------------------------------------ service plane

    def register_service(self, definition: ServiceDefinition) -> ServiceDefinition:
        """Install a new application on every cluster of the testbed.

        One declarative :class:`~repro.core.service.ServiceDefinition` —
        schema, validator, runner, cache policy — makes the application
        submittable end-to-end without touching gateway, validation or
        application dispatch code.  Clusters added later inherit it too.
        Every cluster registers this same definition, so its runner and
        validator are shared by every site.
        """
        for cluster in self.clusters.values():
            cluster.services.register(definition)
        self._extra_services.append(definition)
        return definition

    # ------------------------------------------------------------------ accessors

    @property
    def clusters(self) -> dict[str, LIDCCluster]:
        return self.overlay.clusters

    def cluster(self, name: str) -> LIDCCluster:
        try:
            return self.overlay.clusters[name]
        except KeyError:
            raise LIDCError(f"no cluster {name!r} in the testbed") from None

    def client(self, access_router: str = CLIENT_EDGE, **kwargs) -> LIDCClient:
        return self.overlay.client(access_router, **kwargs)

    # ------------------------------------------------------------------ execution helpers

    def run(self, until=None):
        """Advance the simulation (see :meth:`repro.sim.engine.Environment.run`)."""
        return self.env.run(until=until)

    def run_process(self, generator, name: str = ""):
        return self.env.run_process(generator, name=name)

    def submit_and_wait(self, request: ComputeRequest, client: Optional[LIDCClient] = None,
                        fetch_result: bool = True) -> JobOutcome:
        """Synchronous convenience: open one job session and run it to completion."""
        client = client or self.client()
        return self.run(until=client.submit(request, fetch_result=fetch_result).done)
