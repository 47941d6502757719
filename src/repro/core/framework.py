"""The LIDC testbed builder: one call from nothing to a running deployment.

:class:`LIDCTestbed` assembles the pieces (simulation environment, overlay,
clusters, access routers, SRA registry, runtime model) into the deployments
the paper describes:

* :meth:`LIDCTestbed.single_cluster` — the paper's default setup (§III-C:
  "By default, the LIDC is setup with a single Kubernetes node.  This node is
  the gateway to the cluster"), plus a client edge router;
* :meth:`LIDCTestbed.multi_cluster` — N clusters joined through a client edge
  router (star) or a chain, for the multi-cluster experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.client import JobHandle, JobOutcome, LIDCClient
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.overlay import ComputeOverlay
from repro.core.service import ServiceDefinition
from repro.core.spec import ComputeRequest
from repro.core.workflow import GenomicsWorkflow, WorkflowReport
from repro.exceptions import LIDCError
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sra import SraRegistry
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.sim.trace import Tracer

__all__ = ["TestbedConfig", "LIDCTestbed"]

#: Default client access-router name.
CLIENT_EDGE = "client-edge"


@dataclass
class TestbedConfig:
    """Knobs shared by every testbed topology."""

    seed: int = 0
    node_count: int = 1
    node_cpu: float = 8
    node_memory: str = "32Gi"
    enable_result_cache: bool = False
    reject_when_busy: bool = True
    load_paper_datasets: bool = True
    load_synthetic_datasets: bool = False
    wan_latency_s: float = 0.02
    wan_bandwidth_bps: float = 1e9
    runtime_noise_fraction: float = 0.0
    regions: Sequence[str] = field(default_factory=lambda: (
        "us-central1", "us-east1", "europe-west1", "asia-east1",
        "us-west1", "europe-north1", "asia-south1", "australia-southeast1",
    ))


class LIDCTestbed:
    """A fully wired LIDC deployment inside one simulation environment."""

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        self.env = Environment()
        self.rng = SeededRNG(self.config.seed)
        self.tracer = Tracer(clock=lambda: self.env.now)
        self.registry = SraRegistry()
        self.runtime_model = BlastRuntimeModel(
            registry=self.registry, rng=self.rng,
            noise_fraction=self.config.runtime_noise_fraction,
        )
        self.overlay = ComputeOverlay(self.env, tracer=self.tracer)
        self.overlay.add_access_router(CLIENT_EDGE)
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
                testbed.add_cluster(connect_to=previous, latency_s=latency)
                previous = f"cluster-{chr(ord('a') + index)}"
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
        region: Optional[str] = None,
    ) -> LIDCCluster:
        """Create a new LIDC cluster and attach it to the overlay."""
        config = self.config
        index = self._cluster_counter
        self._cluster_counter += 1
        name = name or f"cluster-{chr(ord('a') + index % 26)}{index // 26 or ''}"
        spec = ClusterSpec(
            name=name,
            region=region or config.regions[index % len(config.regions)],
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
            reject_when_busy=config.reject_when_busy,
            load_paper_datasets=config.load_paper_datasets,
            load_synthetic_datasets=config.load_synthetic_datasets,
            seed=config.seed + index,
            tracer=self.tracer,
        )
        for definition in self._extra_services:
            cluster.register_service(definition.clone())
        connections = []
        if connect_to is not None:
            connections = [(connect_to, latency_s if latency_s is not None else config.wan_latency_s)]
        self.overlay.add_cluster(
            cluster, connect_to=connections, bandwidth_bps=config.wan_bandwidth_bps
        )
        return cluster

    # ------------------------------------------------------------------ service plane

    def register_service(self, definition: ServiceDefinition) -> ServiceDefinition:
        """Install a new application on every cluster of the testbed.

        One declarative :class:`~repro.core.service.ServiceDefinition` —
        schema, validator, runner, cache policy — makes the application
        submittable end-to-end without touching gateway, validation or
        application dispatch code.  Clusters added later inherit it too.
        Every cluster receives its own copy, so per-site validator binding
        and later registry mutations cannot alias across sites.
        """
        self._extra_services.append(definition)
        for cluster in self.clusters.values():
            cluster.register_service(definition.clone())
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

    def workflow(self, client: Optional[LIDCClient] = None, **kwargs) -> GenomicsWorkflow:
        return GenomicsWorkflow(client or self.client(), **kwargs)

    # ------------------------------------------------------------------ execution helpers

    def run(self, until=None):
        """Advance the simulation (see :meth:`repro.sim.engine.Environment.run`)."""
        return self.env.run(until=until)

    def run_process(self, generator, name: str = ""):
        return self.env.run_process(generator, name=name)

    def submit_and_wait(self, request: ComputeRequest, client: Optional[LIDCClient] = None,
                        poll_interval_s: Optional[float] = None,
                        fetch_result: bool = True) -> JobOutcome:
        """Synchronous convenience: open one job session and run it to completion."""
        client = client or self.client()
        handle = client.submit(
            request, fetch_result=fetch_result, poll_interval_s=poll_interval_s
        )
        return self.run(until=handle.done)

    def submit_many_and_wait(
        self,
        requests: Sequence[ComputeRequest],
        client: Optional[LIDCClient] = None,
        poll_interval_s: Optional[float] = None,
        fetch_result: bool = False,
        stagger_s: float = 0.0,
    ) -> list[JobOutcome]:
        """Synchronous convenience: drive N concurrent job sessions to completion.

        All requests go through one client (one Consumer); the handles
        complete independently and the outcomes come back in submission order.
        """
        client = client or self.client()
        handles: list[JobHandle] = client.submit_many(
            requests, fetch_result=fetch_result,
            poll_interval_s=poll_interval_s, stagger_s=stagger_s,
        )
        self.run(until=client.wait_all(handles))
        return [handle.outcome for handle in handles]

    def run_blast(self, srr_id: str, reference: str = "HUMAN", cpu: float = 2,
                  memory_gb: float = 4, client: Optional[LIDCClient] = None) -> WorkflowReport:
        """Synchronous convenience: one full BLAST workflow with step decomposition."""
        workflow = self.workflow(client)
        return self.run_process(
            workflow.blast(srr_id, reference=reference, cpu=cpu, memory_gb=memory_gb),
            name=f"blast:{srr_id}",
        )
