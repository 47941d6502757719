"""Network topology model: nodes, latency/bandwidth links, path queries.

LIDC's evaluation ran on GCP VMs; here the wide-area network between clusters,
data lakes and clients is modelled as a graph whose edges carry propagation
latency (seconds) and bandwidth (bytes/second).  The NDN faces use this model
to compute per-packet transfer delays, and the placement strategies use the
path latencies to pick the "nearest" cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import networkx as nx

from repro.exceptions import SimulationError

__all__ = ["TopologyNode", "Link", "Topology"]


@dataclass(frozen=True)
class TopologyNode:
    """A site in the wide-area topology (cluster gateway, client, data lake).

    ``shards`` declares how many forwarder worker shards the node's data
    plane runs (1 = a plain single-process forwarder) and
    ``shard_weights`` optional per-shard weights for the rendezvous
    placement that partitions its namespace (heterogeneous shard
    capacity).  The topology layer only records the intent;
    :func:`repro.ndn.shard.forwarder_for_node` builds the matching
    :class:`~repro.ndn.forwarder.Forwarder` or
    :class:`~repro.ndn.shard.ShardedForwarder` — the NDN layer imports the
    sim layer, never the reverse.
    """

    name: str
    kind: str = "host"
    region: str = "default"
    shards: int = 1
    shard_weights: Optional[tuple] = None
    attrs: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise SimulationError(
                f"node {self.name!r} needs at least one shard, got {self.shards}"
            )
        if self.shard_weights is not None:
            if len(self.shard_weights) != self.shards:
                raise SimulationError(
                    f"node {self.name!r}: {len(self.shard_weights)} weights "
                    f"for {self.shards} shards"
                )
            if any(weight <= 0 for weight in self.shard_weights):
                raise SimulationError(
                    f"node {self.name!r}: shard weights must be positive"
                )


@dataclass(frozen=True)
class Link:
    """A bidirectional link with propagation latency and bandwidth."""

    a: str
    b: str
    latency_s: float = 0.001
    bandwidth_bps: float = 10e9  # bytes per second
    loss: float = 0.0

    def transfer_time(self, size_bytes: int) -> float:
        """Time to push ``size_bytes`` through this link (propagation + serialisation)."""
        if size_bytes < 0:
            raise SimulationError("negative transfer size")
        serialisation = size_bytes / self.bandwidth_bps if self.bandwidth_bps > 0 else 0.0
        return self.latency_s + serialisation

    def transfer_time_packet(self, packet) -> float:
        """Transfer time for an encoded packet.

        ``packet`` is anything exposing ``.size`` as its wire length — a
        :class:`~repro.ndn.packet.WirePacket` view on the bytes-first
        transport path (where size is ``len(wire)`` with no encoder walk)
        or a decoded packet object.
        """
        return self.transfer_time(packet.size)


class Topology:
    """A named graph of sites and links with shortest-path queries."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._nodes: dict[str, TopologyNode] = {}

    # -- construction --------------------------------------------------------

    def add_node(self, node: "TopologyNode | str", **attrs) -> TopologyNode:
        """Add a site; accepts either a node object or a bare name."""
        if isinstance(node, str):
            node = TopologyNode(name=node, **attrs)
        if node.name in self._nodes:
            raise SimulationError(f"duplicate topology node {node.name!r}")
        self._nodes[node.name] = node
        self._graph.add_node(node.name)
        return node

    def add_link(self, link: "Link | tuple[str, str]", **kwargs) -> Link:
        """Add a link; accepts a Link or an ``(a, b)`` pair plus attributes."""
        if isinstance(link, tuple):
            link = Link(link[0], link[1], **kwargs)
        for endpoint in (link.a, link.b):
            if endpoint not in self._nodes:
                raise SimulationError(f"unknown topology node {endpoint!r}")
        self._graph.add_edge(link.a, link.b, link=link, weight=link.latency_s)
        return link

    def remove_node(self, name: str) -> None:
        """Remove a site and all its links (cluster leaving the overlay)."""
        if name not in self._nodes:
            raise SimulationError(f"unknown topology node {name!r}")
        del self._nodes[name]
        self._graph.remove_node(name)

    def remove_link(self, a: str, b: str) -> None:
        if not self._graph.has_edge(a, b):
            raise SimulationError(f"no link between {a!r} and {b!r}")
        self._graph.remove_edge(a, b)

    # -- queries ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[TopologyNode]:
        return iter(self._nodes.values())

    def node(self, name: str) -> TopologyNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown topology node {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        """The link between two adjacent sites."""
        try:
            return self._graph.edges[a, b]["link"]
        except KeyError:
            raise SimulationError(f"no link between {a!r} and {b!r}") from None

    def neighbors(self, name: str) -> list[str]:
        return sorted(self._graph.neighbors(name))

    def has_path(self, src: str, dst: str) -> bool:
        if src not in self._nodes or dst not in self._nodes:
            return False
        return nx.has_path(self._graph, src, dst)

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Latency-weighted shortest path as a list of node names."""
        if not self.has_path(src, dst):
            raise SimulationError(f"no path between {src!r} and {dst!r}")
        return nx.shortest_path(self._graph, src, dst, weight="weight")

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of propagation latencies along the shortest path."""
        path = self.shortest_path(src, dst)
        return sum(self.link(a, b).latency_s for a, b in zip(path, path[1:]))

    def path_transfer_time(self, src: str, dst: str, size_bytes: int) -> float:
        """Store-and-forward transfer time of a payload along the shortest path."""
        path = self.shortest_path(src, dst)
        return sum(self.link(a, b).transfer_time(size_bytes) for a, b in zip(path, path[1:]))

    def nearest(self, src: str, candidates: Iterable[str]) -> Optional[str]:
        """The reachable candidate with the smallest path latency from ``src``."""
        best: Optional[str] = None
        best_latency = float("inf")
        for cand in candidates:
            if cand == src:
                return cand
            if not self.has_path(src, cand):
                continue
            latency = self.path_latency(src, cand)
            if latency < best_latency:
                best, best_latency = cand, latency
        return best

    # -- canned topologies -------------------------------------------------------

    @classmethod
    def star(cls, center: str, leaves: Iterable[str], latency_s: float = 0.01,
             bandwidth_bps: float = 1e9) -> "Topology":
        """A star topology: every leaf connects to ``center``."""
        topo = cls()
        topo.add_node(TopologyNode(center, kind="router"))
        for leaf in leaves:
            topo.add_node(TopologyNode(leaf))
            topo.add_link(Link(center, leaf, latency_s=latency_s, bandwidth_bps=bandwidth_bps))
        return topo

    @classmethod
    def line(cls, names: list[str], latency_s: float = 0.01,
             bandwidth_bps: float = 1e9) -> "Topology":
        """A chain topology in the order given."""
        topo = cls()
        for name in names:
            topo.add_node(name)
        for a, b in zip(names, names[1:]):
            topo.add_link(Link(a, b, latency_s=latency_s, bandwidth_bps=bandwidth_bps))
        return topo

    @classmethod
    def full_mesh(cls, names: list[str], latency_s: float = 0.02,
                  bandwidth_bps: float = 1e9) -> "Topology":
        """A full mesh between all sites."""
        topo = cls()
        for name in names:
            topo.add_node(name)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                topo.add_link(Link(a, b, latency_s=latency_s, bandwidth_bps=bandwidth_bps))
        return topo
