"""The multi-cluster compute overlay (paper Fig. 1).

The overlay is the decentralized control plane: a set of LIDC clusters and
access routers connected by wide-area links, with prefix announcements (not a
central controller) making every cluster's ``/ndn/k8s/compute`` reachable from
every client.  Clusters can join and leave at any time; the routing layer and
the NACK-retry behaviour of the forwarders adapt placement automatically.
"""

from __future__ import annotations

from typing import Optional

from repro.core import naming
from repro.core.client import LIDCClient
from repro.core.cluster_endpoint import LIDCCluster
from repro.exceptions import OverlayError
from repro.ndn.face import NetworkFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.routing import RoutingDaemon
from repro.ndn.strategy import (
    BestRouteStrategy,
    LoadBalanceStrategy,
    OwnerAffinityStrategy,
    Strategy,
)
from repro.sim.engine import Environment
from repro.sim.topology import Link
from repro.sim.trace import Tracer

__all__ = ["ComputeOverlay"]


class ComputeOverlay:
    """A loosely coupled overlay of compute clusters and access routers."""

    def __init__(self, env: Environment, tracer: Optional[Tracer] = None) -> None:
        self.env = env
        self.tracer = tracer or Tracer(clock=lambda: env.now)
        self.clusters: dict[str, LIDCCluster] = {}
        self.routers: dict[str, Forwarder] = {}
        self._router_daemons: dict[str, RoutingDaemon] = {}
        #: (a, b) -> the two faces of that wide-area link, in creation order.
        self._faces: dict[tuple[str, str], tuple[NetworkFace, NetworkFace]] = {}

    # ------------------------------------------------------------------ membership

    def add_access_router(self, name: str, cs_capacity: int = 4096) -> Forwarder:
        """Add a client access router (the client's local NDN forwarder)."""
        if name in self.routers or name in self.clusters:
            raise OverlayError(f"overlay node {name!r} already exists")
        router = Forwarder(env=self.env, name=name, cs_capacity=cs_capacity, tracer=self.tracer)
        # A job's status name is owned by the one cluster that admitted it
        # (it is a component of the name); every other cluster Nacks the poll.
        # The access router remembers which upstream answered for that
        # cluster, so only the first poll under each cluster pays the walk.
        # Data names stay on best-route: datasets are replicated and the
        # nearest cluster should win each time.
        router.set_strategy(naming.STATUS_PREFIX, OwnerAffinityStrategy())
        self.routers[name] = router
        self._router_daemons[name] = RoutingDaemon(router, node_name=name)
        return router

    def add_cluster(
        self,
        cluster: LIDCCluster,
        connect_to: "list[tuple[str, float]] | list[str] | None" = None,
        default_latency_s: float = 0.02,
        bandwidth_bps: float = 1e9,
        announce: bool = True,
    ) -> LIDCCluster:
        """Add a cluster to the overlay and connect it to existing nodes.

        ``connect_to`` is a list of node names (clusters or routers), each
        optionally paired with a link latency in seconds.
        """
        if cluster.name in self.clusters or cluster.name in self.routers:
            raise OverlayError(f"overlay node {cluster.name!r} already exists")
        self.clusters[cluster.name] = cluster
        self.tracer.record("overlay", "cluster-joined", cluster=cluster.name)
        for entry in connect_to or []:
            if isinstance(entry, tuple):
                peer, latency = entry
            else:
                peer, latency = entry, default_latency_s
            self.connect(cluster.name, peer, latency_s=latency, bandwidth_bps=bandwidth_bps)
        if announce:
            cluster.announce_prefixes()
        return cluster

    def remove_cluster(self, name: str) -> LIDCCluster:
        """Remove a cluster (graceful leave: withdraw prefixes, close links)."""
        cluster = self.clusters.get(name)
        if cluster is None:
            raise OverlayError(f"no cluster {name!r} in the overlay")
        cluster.withdraw_prefixes()
        self._disconnect_all(name)
        del self.clusters[name]
        self.tracer.record("overlay", "cluster-left", cluster=name)
        return cluster

    def fail_cluster(self, name: str) -> LIDCCluster:
        """Abrupt failure: links drop without any prefix withdrawal."""
        cluster = self.clusters.get(name)
        if cluster is None:
            raise OverlayError(f"no cluster {name!r} in the overlay")
        self._disconnect_all(name)
        del self.clusters[name]
        self.tracer.record("overlay", "cluster-failed", cluster=name)
        return cluster

    def _disconnect_all(self, name: str) -> None:
        for (a, b), (face_a, face_b) in list(self._faces.items()):
            if name in (a, b):
                # Full forwarder-level removal (not just a face close): each
                # side purges its FIB *and* resolves the PIT entries whose
                # upstream just vanished — retrying over surviving routes or
                # Nacking the consumer (NoRoute) so nothing waits out a
                # lifetime against a dead link.
                self._forwarder_of(a).remove_face(face_a.face_id)
                self._forwarder_of(b).remove_face(face_b.face_id)
                daemon_a, daemon_b = self._daemon_of(a), self._daemon_of(b)
                daemon_a.remove_adjacency(b)
                daemon_b.remove_adjacency(a)
                del self._faces[(a, b)]

    # ------------------------------------------------------------------ link faults

    def _link_faces(self, a: str, b: str) -> tuple[NetworkFace, NetworkFace]:
        pair = self._faces.get((a, b)) or self._faces.get((b, a))
        if pair is None:
            raise OverlayError(f"no overlay link between {a!r} and {b!r}")
        return pair

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        """Mark both ends of the ``a``–``b`` link up or down.

        A downed link silently drops traffic in both directions (counted in
        each face's ``stats.drops``) without tearing down routes — the
        flapping-WAN failure mode, distinct from :meth:`fail_cluster`'s
        clean removal.  Recovery is the same toggle back up.
        """
        face_a, face_b = self._link_faces(a, b)
        face_a.up = up
        face_b.up = up
        self.tracer.record(
            "overlay", "link-up" if up else "link-down", a=a, b=b
        )

    def fail_link(self, a: str, b: str) -> None:
        self.set_link_state(a, b, up=False)

    def heal_link(self, a: str, b: str) -> None:
        self.set_link_state(a, b, up=True)

    def link_up(self, a: str, b: str) -> bool:
        face_a, face_b = self._link_faces(a, b)
        return face_a.up and face_b.up

    def isolate(self, name: str) -> list[tuple[str, str]]:
        """Partition ``name`` from the overlay: down every link it touches.

        Returns the downed links so :meth:`rejoin` (or a chaos driver's
        heal event) can restore exactly the same cut.
        """
        if name not in self.clusters and name not in self.routers:
            raise OverlayError(f"unknown overlay node {name!r}")
        cut = [key for key in self._faces if name in key]
        for a, b in cut:
            self.set_link_state(a, b, up=False)
        self.tracer.record("overlay", "partitioned", node=name, links=len(cut))
        return cut

    def rejoin(self, name: str) -> list[tuple[str, str]]:
        """Heal a partition: bring every link touching ``name`` back up."""
        if name not in self.clusters and name not in self.routers:
            raise OverlayError(f"unknown overlay node {name!r}")
        healed = [key for key in self._faces if name in key]
        for a, b in healed:
            self.set_link_state(a, b, up=True)
        self.tracer.record("overlay", "rejoined", node=name, links=len(healed))
        return healed

    # ------------------------------------------------------------------ wiring

    def _forwarder_of(self, name: str) -> Forwarder:
        if name in self.clusters:
            return self.clusters[name].gateway_nfd
        if name in self.routers:
            return self.routers[name]
        raise OverlayError(f"unknown overlay node {name!r}")

    def _daemon_of(self, name: str) -> RoutingDaemon:
        if name in self.clusters:
            return self.clusters[name].routing
        if name in self._router_daemons:
            return self._router_daemons[name]
        raise OverlayError(f"unknown overlay node {name!r}")

    def connect(self, a: str, b: str, latency_s: float = 0.02,
                bandwidth_bps: float = 1e9) -> Link:
        """Create a bidirectional wide-area link between two overlay nodes.

        Its routing cost is the latency in milliseconds (at least 1).
        """
        if a == b:
            raise OverlayError("cannot connect a node to itself")
        if (a, b) in self._faces or (b, a) in self._faces:
            raise OverlayError(f"{a!r} and {b!r} are already connected")
        forwarder_a, forwarder_b = self._forwarder_of(a), self._forwarder_of(b)
        link = Link(a, b, latency_s=latency_s, bandwidth_bps=bandwidth_bps)
        face_a, face_b = connect(self.env, forwarder_a, forwarder_b, link=link, label=f"{a}<->{b}")
        self._faces[(a, b)] = (face_a, face_b)
        cost = max(1.0, latency_s * 1000.0)
        RoutingDaemon.peer(self._daemon_of(a), face_a, self._daemon_of(b), face_b, link_cost=cost)
        return link

    # ------------------------------------------------------------------ strategies

    def set_compute_strategy(self, strategy: Strategy) -> None:
        """Install a forwarding strategy for ``/ndn/k8s/compute`` on every access router.

        Cluster gateway NFDs keep best-route so that a request reaching a
        cluster is served locally (the producer face has cost 0) rather than
        being bounced onward.
        """
        for router in self.routers.values():
            router.set_strategy(naming.COMPUTE_PREFIX, strategy)

    def use_nearest_cluster(self) -> None:
        """Route compute requests to the lowest-cost (nearest) cluster."""
        self.set_compute_strategy(BestRouteStrategy())

    def use_load_balancing(self) -> None:
        """Spread compute requests round robin over the clusters announcing the prefix."""
        self.set_compute_strategy(LoadBalanceStrategy())

    # ------------------------------------------------------------------ clients

    def client(self, access_router: str, **kwargs) -> LIDCClient:
        """Create a client attached to one of the access routers."""
        return LIDCClient(self.env, self._forwarder_of(access_router), **kwargs)

    # ------------------------------------------------------------------ queries

    def node_names(self) -> list[str]:
        return sorted(list(self.clusters) + list(self.routers))

    def links(self) -> list[Link]:
        """Every live wide-area link, in the order they were connected."""
        return [face_a.link for face_a, _face_b in self._faces.values()]

    def reachable_compute_origins(self, from_node: str) -> list[str]:
        """Which clusters' compute prefixes the given node currently knows about."""
        return self._daemon_of(from_node).origins_for(naming.COMPUTE_PREFIX)
