"""The shared ``overlay3`` deployment, and everything read off it from outside.

The stack is built from public constructors only and runs as shipped: one
enabled :class:`~repro.sim.trace.Tracer` shared by every node (as
``LIDCTestbed`` wires it) and every cluster-side default.  Counters are
collected by walking public ``stats()``/attribute surfaces; nothing inside
``src/`` is patched for the untraced pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import ClusterSpec
from repro.core import naming
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.overlay import ComputeOverlay
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sra import SraRegistry
from repro.ndn.face import Face
from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import WirePacket
from repro.ndn.shard import ShardedForwarder, ShardFace
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG

from e2ebench import config

ANNOUNCED = (naming.COMPUTE_PREFIX, naming.STATUS_PREFIX, naming.DATA_PREFIX)
#: Gateway application counters summed over the clusters.
GATEWAY_COUNTERS = (
    "compute_interests", "compute_rejected_capacity", "status_interests",
    "status_unknown_job", "cache_hits", "jobs_admitted", "jobs_completed", "jobs_failed",
)
HOT_CACHE_COUNTERS = ("hits", "misses", "insertions", "evictions", "expirations")


class RecordingOverlay(ComputeOverlay):
    """A :class:`ComputeOverlay` that remembers every edge-side WAN face.

    A killed cluster's faces leave ``Forwarder.faces()`` and take their
    byte counters with them; ``wan_bytes_per_request`` needs them all, so
    each new edge<->cluster face is noted the moment ``connect`` makes it.
    Purely observational: routing and forwarding are untouched.
    """

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self.wan_faces: list[Face] = []
        #: Called just before a cluster's faces are torn down (``Stack.note``).
        self.before_removal = lambda: None

    def connect(self, a, b, **kwargs):
        link = super().connect(a, b, **kwargs)
        for name in (a, b):
            if name in self.routers:
                faces = self.routers[name].faces()
                self.wan_faces.append(faces[max(faces)])
        return link

    def fail_cluster(self, name: str):
        self.before_removal()
        return super().fail_cluster(name)


@dataclass
class Stack:
    """One built ``overlay3`` plus the handles the harness measures through."""

    env: Environment
    overlay: RecordingOverlay
    clusters: dict[str, LIDCCluster]
    edges: list[Forwarder]
    registry: SraRegistry
    model: BlastRuntimeModel
    consumers: list = field(default_factory=list)  # ndn Consumers, one per edge
    clients: list = field(default_factory=list)    # LIDCClients, one per edge
    # Everything :meth:`note` has ever seen, by ``id``.  A kill removes a
    # gateway's WAN faces and their shard boundary pairs, a resize removes
    # producer faces and a shrinking one whole shards; each would take its
    # counters, and its PIT, out of every later walk.
    _forwarders: dict = field(default_factory=dict)  # id -> (tier, Forwarder)
    _shards: dict = field(default_factory=dict)      # id -> Forwarder (a gateway shard)
    _boundaries: dict = field(default_factory=dict)  # id -> (dispatcher side, shard side)
    _faces: dict = field(default_factory=dict)       # id -> Face

    # ------------------------------------------------------------ walking

    def note(self) -> None:
        """Remember every forwarder, shard boundary pair and face alive now.

        Runs before each operation that removes any (``fail_cluster``, the
        workload's ``resize``) and at the head of every walk, so nothing
        that ever carried a packet is missing from the counters, the frame
        ledger or the leak check.
        """
        for edge in self.edges:
            self._forwarders.setdefault(id(edge), ("edge", edge))
        for cluster in self.clusters.values():
            gateway = cluster.gateway_nfd
            if isinstance(gateway, ShardedForwarder):
                for shard in gateway.shards:
                    self._forwarders.setdefault(id(shard), ("gateway", shard))
                    self._shards.setdefault(id(shard), shard)
                for face in gateway.faces().values():
                    self._faces.setdefault(id(face), face)
            else:
                self._forwarders.setdefault(id(gateway), ("gateway", gateway))
            datalake = cluster.datalake_nfd
            self._forwarders.setdefault(id(datalake), ("datalake", datalake))
        for _tier, forwarder in self._forwarders.values():
            for face in forwarder.faces().values():
                self._faces.setdefault(id(face), face)
                if face.peer is not None:
                    self._faces.setdefault(id(face.peer), face.peer)
                if isinstance(face, ShardFace):
                    self._boundaries.setdefault(id(face), (face.peer, face))

    def forwarders(self) -> list[tuple[str, Forwarder]]:
        """Every plain :class:`Forwarder` (shards included) with a tier tag."""
        self.note()
        return list(self._forwarders.values())

    def sharded(self) -> list[ShardedForwarder]:
        return [
            cluster.gateway_nfd for cluster in self.clusters.values()
            if isinstance(cluster.gateway_nfd, ShardedForwarder)
        ]

    def endpoints(self) -> list:
        """The ndn Consumers that carry this run's traffic."""
        return self.consumers or [client.consumer for client in self.clients]

    # ----------------------------------------------------------- counters

    def counters(self) -> dict[str, float]:
        """Every simulated counter the metrics and the digest are built from."""
        out: dict[str, float] = {"env.now": self.env.now}
        endpoints = self.endpoints()
        for key in ("interests_sent", "data_received", "nacks_received", "timeouts"):
            out[f"client.{key}"] = sum(getattr(c, key) for c in endpoints)
        out["client.pending"] = sum(c.pending_count() for c in endpoints)
        out["client.sessions"] = sum(client.in_flight for client in self.clients)

        for tier in ("edge", "gateway", "datalake"):
            for key in ("cs.hits", "cs.misses", "cs.insertions", "cs.evictions",
                        "pit.aggregated", "pit.satisfied", "pit.expired", "pit.size",
                        "fib.lookups", "packets", "nack_retries", "interests"):
                out[f"{tier}.{key}"] = 0
        for tier, forwarder in self.forwarders():
            cs, pit = forwarder.cs, forwarder.pit
            out[f"{tier}.cs.hits"] += cs.hits
            out[f"{tier}.cs.misses"] += cs.misses
            out[f"{tier}.cs.insertions"] += cs.insertions
            out[f"{tier}.cs.evictions"] += cs.evictions
            out[f"{tier}.pit.aggregated"] += pit.aggregated
            out[f"{tier}.pit.satisfied"] += pit.satisfied
            out[f"{tier}.pit.expired"] += pit.expired
            out[f"{tier}.pit.size"] += len(pit)
            out[f"{tier}.fib.lookups"] += forwarder.fib.lookups
            metrics = forwarder.metrics
            interests = metrics.counter("interests_received").value
            out[f"{tier}.interests"] += interests
            out[f"{tier}.packets"] += (
                interests + metrics.counter("data_received").value
                + metrics.counter("nacks_received").value
            )
            out[f"{tier}.nack_retries"] += metrics.counter("nack_retries").value

        for key in HOT_CACHE_COUNTERS:
            out[f"hot.{key}"] = 0
        out["shard.frames"] = out["shard.resizes"] = out["shard.ledger_errors"] = 0
        for gateway in self.sharded():
            hot = gateway.hot_cache.stats() if gateway.hot_cache is not None else {}
            for key in HOT_CACHE_COUNTERS:
                out[f"hot.{key}"] += hot.get(key, 0)
            out["shard.resizes"] += len(gateway.rebalances)
        for dispatcher_side, shard_side in self._boundaries.values():
            down, up = dispatcher_side.stats.as_dict(), shard_side.stats.as_dict()
            out["shard.frames"] += sum(
                side[key] for side in (down, up)
                for key in ("interests_out", "data_out", "nacks_out")
            )
            if down["bytes_out"] != up["bytes_in"] or up["bytes_out"] != down["bytes_in"]:
                out["shard.ledger_errors"] += 1
        for shard in self._shards.values():
            out[f"{shard.name}.interests"] = shard.metrics.counter("interests_received").value

        out["face.bytes"] = out["face.drops"] = 0
        for face in self._faces.values():
            out["face.bytes"] += face.stats.bytes_out
            out["face.drops"] += face.stats.drops
        out["wan.bytes"] = sum(
            face.stats.bytes_in + face.stats.bytes_out for face in self.overlay.wan_faces
        )

        for key in GATEWAY_COUNTERS:
            out[f"gateway.{key}"] = 0
        for key in ("served", "failed", "segment_objects"):
            out[f"fileserver.{key}"] = 0
        out["datalake.published"] = 0
        for name, cluster in self.clusters.items():
            metrics = cluster.gateway.metrics
            for key in GATEWAY_COUNTERS:
                out[f"gateway.{key}"] += metrics.counter(key).value
            out[f"{name}.jobs_admitted"] = metrics.counter("jobs_admitted").value
            served = cluster.fileserver.stats()
            out["fileserver.served"] += served["requests_served"]
            out["fileserver.failed"] += served["requests_failed"]
            out["fileserver.segment_objects"] += served["cached_objects"]
            out["datalake.published"] += cluster.datalake.publish_count
            out[f"{name}.routing"] = (
                cluster.routing.announcements_sent + cluster.routing.announcements_received
            )

        out["tracer.records"] = len(self.overlay.tracer.events)
        out["packet.wire_decodes"] = WirePacket.wire_decodes
        out["packet.span_scans"] = WirePacket.span_scans
        return out

    # ---------------------------------------------------------- invariants

    def leak_report(self) -> list[str]:
        """What is still held after the drain; empty when the run is clean."""
        problems = []
        for _tier, forwarder in self.forwarders():
            forwarder.pit.expire()
            if len(forwarder.pit):
                problems.append(f"{forwarder.name}: {len(forwarder.pit)} PIT entries leaked")
        for endpoint in self.endpoints():
            if endpoint.pending_count():
                problems.append(
                    f"{endpoint.name}: {endpoint.pending_count()} consumer pendings leaked"
                )
        for client in self.clients:
            if client.in_flight:
                problems.append(f"{client.name}: {client.in_flight} client sessions leaked")
        return problems

    def utilisation(self) -> float:
        """Capacity-weighted CPU utilisation over the three clusters."""
        used = total = 0.0
        for cluster in self.clusters.values():
            capacity = cluster.cluster.total_allocatable().cpu
            used += cluster.cluster.utilization()["cpu"] * capacity
            total += capacity
        return used / total if total else 0.0


def build_overlay3(seed: int) -> Stack:
    """``overlay3``: three clusters, four edges, every edge linked to all three.

    Edge routes are registered statically (cost = link latency in ms, the
    overlay's own convention) and the clusters join with ``announce=False``:
    ``RoutingDaemon`` keys its RIB by (prefix, origin) but the FIB keys next
    hops by face, so in a mesh the flooded copy of one cluster's
    announcement that arrives through another cluster first overwrites, and
    is then removed together with, that other cluster's direct next hop —
    edges 1-3 end up with a single route.  The daemon still runs whenever
    the chaos driver restarts a cluster or churns its prefixes.
    """
    env = Environment()
    overlay = RecordingOverlay(env)
    registry = SraRegistry()
    model = BlastRuntimeModel(registry=registry, rng=SeededRNG(seed).spawn("runtime"))
    clusters: dict[str, LIDCCluster] = {}
    for index, (name, _latency, nodes, shards) in enumerate(config.CLUSTERS):
        cluster = LIDCCluster(
            env, ClusterSpec(name=name, node_count=nodes),
            registry=registry, runtime_model=model, seed=seed + index,
            tracer=overlay.tracer, gateway_shards=shards,
        )
        overlay.add_cluster(cluster, announce=False)
        clusters[name] = cluster
    edges = []
    for edge_name in config.EDGES:
        edge = overlay.add_access_router(edge_name, cs_capacity=config.EDGE_CS_CAPACITY)
        for name, latency, _nodes, _shards in config.CLUSTERS:
            overlay.connect(edge_name, name, latency_s=latency)
            face = overlay.wan_faces[-1]
            for prefix in ANNOUNCED:
                edge.register_prefix(prefix, face, cost=latency * 1000.0)
        edges.append(edge)
    stack = Stack(env=env, overlay=overlay, clusters=clusters, edges=edges,
                  registry=registry, model=model)
    overlay.before_removal = stack.note
    return stack
