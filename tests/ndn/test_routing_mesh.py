"""The RIB -> FIB projection is correct in a mesh.

The RIB is keyed by (prefix, origin), the FIB by (prefix, face), and in a
mesh every cluster's flooded announcement also reaches an edge *through*
every other cluster.  One origin's announcement or withdrawal must never
cost a node another origin's next hop, and a next hop the daemon did not
install (a static ``register_prefix``) is never touched at all.

* a regression in the shape of the benchmark's ``overlay3`` — 4 access
  routers x 3 clusters, static edge routes, clusters joined with
  ``announce=False`` — built from public constructors only;
* a Hypothesis oracle: random connected topologies and random announce /
  withdraw / re-announce sequences against brute-force cheapest paths;
* the stale-RIB fix: routes learned over a removed adjacency go with it.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.core import naming
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.overlay import ComputeOverlay
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.routing import RoutingDaemon
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.topology import Link

LIDC_PREFIXES = (naming.COMPUTE_PREFIX, naming.STATUS_PREFIX, naming.DATA_PREFIX)


def next_hops(forwarder, prefix):
    """``{face id: cost}`` of a node's FIB next hops for exactly ``prefix``.

    A ``ShardedForwarder``'s FIB is a facade over per-shard tables with no
    entries of its own to walk; it is asked hop by hop.
    """
    if isinstance(forwarder, ShardedForwarder):
        costs = {face_id: forwarder.fib.route_cost(prefix, face_id)
                 for face_id in forwarder.faces()}
        return {face_id: cost for face_id, cost in costs.items() if cost is not None}
    entry = forwarder.fib.exact(prefix)
    return {hop.face_id: hop.cost for hop in entry.nexthops} if entry else {}


# ----------------------------------------------------------- overlay3's shape


class Mesh:
    """Four edges, each linked to all three clusters; static edge routes."""

    #: name -> (link latency to every edge in seconds, gateway shards); the
    #: nearest gateway is sharded, so the daemon also runs over the facade.
    CLUSTERS = {"cluster-a": (0.010, 2), "cluster-b": (0.020, 1), "cluster-c": (0.040, 1)}
    EDGES = ("edge-0", "edge-1", "edge-2", "edge-3")

    def __init__(self):
        self.env = Environment()
        self.overlay = ComputeOverlay(self.env)
        for name, (_latency, shards) in self.CLUSTERS.items():
            cluster = LIDCCluster(
                self.env, ClusterSpec(name=name, node_count=1),
                load_paper_datasets=False, gateway_shards=shards,
                tracer=self.overlay.tracer,
            )
            self.overlay.add_cluster(cluster, announce=False)
        self.edges = []
        for edge_name in self.EDGES:
            edge = self.overlay.add_access_router(edge_name)
            for name, (latency, _shards) in self.CLUSTERS.items():
                self.overlay.connect(edge_name, name, latency_s=latency)
                face_id = max(edge.faces())
                for prefix in LIDC_PREFIXES:
                    edge.register_prefix(prefix, face_id, cost=latency * 1000.0)
            self.edges.append(edge)

    def churn(self, name):
        cluster = self.overlay.clusters[name]
        cluster.withdraw_prefixes()
        cluster.announce_prefixes()

    def restart(self, name):
        cluster = self.overlay.fail_cluster(name)
        latency = self.CLUSTERS[name][0]
        self.overlay.add_cluster(
            cluster, connect_to=[(edge_name, latency) for edge_name in self.EDGES])

    @staticmethod
    def peer_of(edge, face_id):
        """The node a face's link leads to; connect() labels it "<a><-><b>:<side>"."""
        ends = edge.face(face_id).label.rsplit(":", 1)[0].split("<->")
        (peer,) = [name for name in ends if name != edge.name]
        return peer

    def edge_routes(self):
        """Per edge and prefix: ``{cluster the hop's link leads to: cost}``."""
        table = {}
        for edge in self.edges:
            for prefix in LIDC_PREFIXES:
                hops = next_hops(edge, prefix)
                table[edge.name, prefix] = {
                    self.peer_of(edge, face_id): cost for face_id, cost in hops.items()
                }
                assert len(table[edge.name, prefix]) == len(hops)
        return table

    def expected(self):
        direct = {name: latency * 1000.0 for name, (latency, _s) in self.CLUSTERS.items()}
        return {(edge, prefix): direct for edge in self.EDGES for prefix in LIDC_PREFIXES}


class TestOverlay3Shape:
    def test_churn_of_each_cluster_costs_no_edge_any_route(self):
        """Fails at the parent: one to two hops per edge after the first churn."""
        mesh = Mesh()
        assert mesh.edge_routes() == mesh.expected()
        for name in ("cluster-b", "cluster-a", "cluster-c"):
            mesh.churn(name)
            assert mesh.edge_routes() == mesh.expected(), f"after churning {name}"

    def test_restart_of_each_cluster_restores_every_direct_route(self):
        mesh = Mesh()
        for name in mesh.CLUSTERS:
            mesh.restart(name)
            assert mesh.edge_routes() == mesh.expected(), f"after restarting {name}"
        # Restarted clusters' routes are now the daemon's: they still churn cleanly.
        for name in mesh.CLUSTERS:
            mesh.churn(name)
            assert mesh.edge_routes() == mesh.expected(), f"after churning {name}"

    def test_a_withdrawn_restarted_cluster_leaves_and_only_it(self):
        mesh = Mesh()
        mesh.restart("cluster-b")  # its routes are daemon-installed now
        mesh.overlay.clusters["cluster-b"].withdraw_prefixes()
        expected = {
            key: {name: cost for name, cost in hops.items() if name != "cluster-b"}
            for key, hops in mesh.expected().items()
        }
        assert mesh.edge_routes() == expected
        mesh.overlay.clusters["cluster-b"].announce_prefixes()
        assert mesh.edge_routes() == mesh.expected()

    def test_the_sharded_gateway_learns_and_forgets_the_other_origins(self):
        """The same projection through ``ShardedForwarder``'s FIB facade."""
        mesh = Mesh()
        gateway = mesh.overlay.clusters["cluster-a"].gateway_nfd
        assert isinstance(gateway, ShardedForwarder)
        local = next_hops(gateway, naming.DATA_PREFIX)  # its own data lake, static

        def learned():
            hops = next_hops(gateway, naming.DATA_PREFIX)
            assert {face_id: hops.get(face_id) for face_id in local} == local
            return sorted(cost for face_id, cost in hops.items() if face_id not in local)

        assert local and learned() == []
        for name in mesh.CLUSTERS:
            mesh.churn(name)
        # b is 10 + 20 ms away over any edge and c 10 + 40: one face costing
        # the nearer origin when both came in over it, else one face each.
        assert learned() in ([30.0], [30.0, 50.0])
        mesh.overlay.clusters["cluster-b"].withdraw_prefixes()
        assert learned() == [50.0]  # c's route survives whichever face b shared
        mesh.overlay.clusters["cluster-c"].withdraw_prefixes()
        assert learned() == []  # gone with the last origin using it


# ------------------------------------------------------------ brute-force oracle

PREFIX = Name("/mesh/prefix")


@st.composite
def scenarios(draw):
    """A connected topology with distinct power-of-two link costs (so every
    path sum is unique), the origins, the static hops and a step sequence."""
    size = draw(st.integers(3, 6))
    links = {(draw(st.integers(0, node - 1)), node) for node in range(1, size)}
    spare = [(a, b) for b in range(size) for a in range(b) if (a, b) not in links]
    links |= set(draw(st.lists(st.sampled_from(spare), unique=True))) if spare else set()
    links = draw(st.permutations(sorted(links)))
    costs = {link: float(2 ** index) for index, link in enumerate(links)}
    sharded = draw(st.sets(st.integers(0, size - 1), max_size=2))
    origins = draw(st.integers(1, 3))
    static = draw(st.lists(
        st.tuples(st.sampled_from(list(costs)), st.booleans(), st.sampled_from([0.5, 7.0, 900.0])),
        max_size=2, unique_by=lambda item: item[:2]))
    steps = draw(st.lists(
        st.tuples(st.integers(0, origins - 1), st.sampled_from(["withdraw", 0.0, 0.0, 3.0])),
        min_size=1, max_size=12))
    return size, costs, sharded, static, steps


def cheapest_paths(size, costs, source):
    """``{target: (cost, first neighbour)}`` over every simple path — brute force."""
    neighbours = {node: {} for node in range(size)}
    for (a, b), cost in costs.items():
        neighbours[a][b] = neighbours[b][a] = cost
    best = {}

    def walk(node, seen, total, first):
        if node != source and (node not in best or total < best[node][0]):
            best[node] = (total, first)
        for other, cost in neighbours[node].items():
            if other not in seen:
                walk(other, seen | {other}, total + cost, other if first is None else first)

    walk(source, {source}, 0.0, None)
    return best


class TestProjectionOracle:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_every_fib_equals_the_brute_force_projection_after_every_step(self, scenario):
        size, costs, sharded, static, steps = scenario
        env = Environment()
        nodes = [
            ShardedForwarder(env, f"n{index}", shards=2) if index in sharded
            else Forwarder(env, f"n{index}")
            for index in range(size)
        ]
        daemons = [RoutingDaemon(node) for node in nodes]
        face_to = {}  # (node, neighbour) -> face id on node
        for (a, b), cost in costs.items():
            face_a, face_b = connect(env, nodes[a], nodes[b], link=Link(f"n{a}", f"n{b}"))
            RoutingDaemon.peer(daemons[a], face_a, daemons[b], face_b, link_cost=cost)
            face_to[a, b], face_to[b, a] = face_a.face_id, face_b.face_id
        pinned = {}  # (node, face id) -> the operator's cost
        for (a, b), flip, cost in static:
            node, other = (b, a) if flip else (a, b)
            nodes[node].register_prefix(PREFIX, face_to[node, other], cost)
            pinned[node, face_to[node, other]] = cost
        paths = [cheapest_paths(size, costs, node) for node in range(size)]

        live = {}  # origin -> its announced cost
        for origin, action in steps:
            if action == "withdraw":
                daemons[origin].withdraw(PREFIX)
                live.pop(origin, None)
            else:
                daemons[origin].announce(PREFIX, cost=action)
                live[origin] = action
            for node in range(size):
                expected = {}
                for target, announced in live.items():
                    if target == node:
                        continue
                    distance, neighbour = paths[node][target]
                    face_id = face_to[node, neighbour]
                    expected[face_id] = min(
                        expected.get(face_id, float("inf")), distance + announced)
                # A static next hop is the operator's: never removed, never re-costed.
                expected.update({face_id: cost for (owner, face_id), cost in pinned.items()
                                 if owner == node})
                assert next_hops(nodes[node], PREFIX) == expected, (node, origin, action)
                assert daemons[node].origins_for(PREFIX) == sorted(f"n{o}" for o in live)


# ------------------------------------------------------------------ stale RIB


class TestRemovedAdjacencyTakesItsRoutes:
    def test_a_failed_cluster_stops_being_reachable(self):
        """Fails at the parent: all three clusters listed, nine RIB routes."""
        testbed = LIDCTestbed.multi_cluster(3)
        overlay = testbed.overlay
        assert overlay.reachable_compute_origins(CLIENT_EDGE) == [
            "cluster-a", "cluster-b", "cluster-c"]
        failed = overlay.fail_cluster("cluster-b")
        assert overlay.reachable_compute_origins(CLIENT_EDGE) == ["cluster-a", "cluster-c"]
        daemon = overlay._daemon_of(CLIENT_EDGE)
        assert daemon.rib_size() == 2 * len(LIDC_PREFIXES)
        edge = overlay.routers[CLIENT_EDGE]
        for prefix in LIDC_PREFIXES:
            assert set(next_hops(edge, prefix)) == set(edge.faces())
            assert len(edge.faces()) == 2
        overlay.add_cluster(failed, connect_to=[(CLIENT_EDGE, 0.02)])
        assert overlay.reachable_compute_origins(CLIENT_EDGE) == [
            "cluster-a", "cluster-b", "cluster-c"]
        assert daemon.rib_size() == 3 * len(LIDC_PREFIXES)

    def test_the_drop_is_local_and_no_withdrawal_is_flooded(self):
        """a - b - c, c announces; b loses c.  b forgets the route, a is not
        told (c may still be reachable over a path b knows nothing about)."""
        env = Environment()
        nodes = [Forwarder(env, name) for name in "abc"]
        daemons = [RoutingDaemon(node) for node in nodes]
        faces = {}
        for left, right in ((0, 1), (1, 2)):
            pair = connect(env, nodes[left], nodes[right], link=Link("x", "y"))
            RoutingDaemon.peer(daemons[left], pair[0], daemons[right], pair[1], link_cost=5.0)
            faces[left, right], faces[right, left] = pair
        daemons[2].announce(PREFIX)
        daemons[0].announce("/mesh/other")
        assert next_hops(nodes[1], PREFIX) == {faces[1, 2].face_id: 5.0}
        assert next_hops(nodes[0], PREFIX) == {faces[0, 1].face_id: 10.0}
        received = daemons[0].announcements_received
        daemons[1].remove_adjacency("c")
        assert daemons[1].origins_for(PREFIX) == []
        assert next_hops(nodes[1], PREFIX) == {}
        assert daemons[1].origins_for("/mesh/other") == ["a"]  # learned elsewhere: kept
        assert daemons[0].origins_for(PREFIX) == ["c"]
        assert next_hops(nodes[0], PREFIX) == {faces[0, 1].face_id: 10.0}
        assert daemons[0].announcements_received == received

    def test_a_removed_face_takes_every_origin_behind_it(self):
        """hub - relay - {x, y, z}: three origins reach the hub over one face.
        The face goes (with its FIB hops), then the adjacency: the routes
        leave one at a time, and while some are still in the RIB none may be
        put back on the missing face."""
        env = Environment()
        nodes = {name: Forwarder(env, name) for name in ("hub", "relay", "x", "y", "z")}
        daemons = {name: RoutingDaemon(node) for name, node in nodes.items()}
        faces = {}
        for left, right in (("hub", "relay"), ("relay", "x"), ("relay", "y"), ("relay", "z")):
            pair = connect(env, nodes[left], nodes[right], link=Link(left, right))
            RoutingDaemon.peer(daemons[left], pair[0], daemons[right], pair[1], link_cost=1.0)
            faces[left, right] = pair[0]
        daemons["x"].announce(PREFIX)
        daemons["y"].announce(PREFIX, cost=5.0)
        daemons["z"].announce(PREFIX, cost=9.0)
        uplink = faces["hub", "relay"]
        assert next_hops(nodes["hub"], PREFIX) == {uplink.face_id: 2.0}
        nodes["hub"].remove_face(uplink.face_id)
        daemons["hub"].remove_adjacency("relay")
        assert daemons["hub"].rib_size() == 0
        assert next_hops(nodes["hub"], PREFIX) == {}
