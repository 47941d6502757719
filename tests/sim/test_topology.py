"""Tests for the wide-area network model.

A :class:`Link` gives one hop's transfer delay.  The network those links
form is the overlay's: clusters and access routers are its nodes,
:meth:`ComputeOverlay.connect` lays a :class:`Link` under each adjacency,
and each link's latency (in ms) is its routing cost.  Paths and "the
nearest cluster" are what the routing layer's summed costs and the
forwarding strategies make of that graph.
"""

import pytest

from repro.core import naming
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.overlay import ComputeOverlay
from repro.core.spec import ComputeRequest
from repro.exceptions import InterestNacked, LIDCError, OverlayError, SimulationError
from repro.ndn.client import Consumer
from repro.ndn.name import Name
from repro.ndn.packet import Data, WirePacket
from repro.sim.engine import Environment
from repro.sim.topology import Link


def edge_compute_route(testbed):
    """The client edge's FIB entry for the compute prefix."""
    return testbed.overlay.routers[CLIENT_EDGE].fib.lookup(naming.COMPUTE_PREFIX)


def submit(testbed, access_router=CLIENT_EDGE):
    """Submit one small job from ``access_router``; its accepted submission."""
    client = testbed.client(access_router)
    submission = testbed.run_process(client.submit_interest(ComputeRequest(
        app="SLEEP", cpu=1, memory_gb=1, params={"duration": "30"})))
    assert submission.accepted, submission.error
    return submission


def place(testbed, access_router=CLIENT_EDGE):
    """The cluster that takes one small job submitted from ``access_router``."""
    return submit(testbed, access_router).cluster


def interests_seen(testbed, cluster):
    return testbed.cluster(cluster).gateway_nfd.metrics.counter("interests_received").value


def link_pairs(testbed):
    return [(link.a, link.b) for link in testbed.overlay.links()]


class TestConstruction:
    def test_add_node_by_name(self):
        overlay = ComputeOverlay(Environment())
        router = overlay.add_access_router("edge-west")
        assert router.name == "edge-west"
        assert overlay.node_names() == ["edge-west"]
        testbed = LIDCTestbed.single_cluster(seed=0)
        cluster = testbed.add_cluster(name="cluster-far")
        assert testbed.cluster("cluster-far") is cluster
        assert testbed.overlay.node_names() == [CLIENT_EDGE, "cluster-a", "cluster-far"]

    def test_add_link_from_tuple(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        overlay = testbed.overlay
        cluster = overlay.remove_cluster("cluster-a")
        overlay.add_access_router("edge-2")
        overlay.add_cluster(cluster, connect_to=[(CLIENT_EDGE, 0.05), ("edge-2", 0.007)])
        assert [(link.a, link.b, link.latency_s) for link in overlay.links()] == [
            ("cluster-a", CLIENT_EDGE, 0.05),
            ("cluster-a", "edge-2", 0.007),
        ]
        # The 50 ms link is a 50-unit route at the edge.
        assert edge_compute_route(testbed).nexthops[0].cost == pytest.approx(50.0)

    def test_duplicate_node_rejected(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        # Clusters and routers share one namespace.
        with pytest.raises(OverlayError):
            testbed.overlay.add_access_router("cluster-a")
        with pytest.raises(OverlayError):
            testbed.add_cluster(name=CLIENT_EDGE)
        assert testbed.overlay.node_names() == [CLIENT_EDGE, "cluster-a"]

    def test_len_counts_nodes(self):
        testbed = LIDCTestbed.multi_cluster(3, seed=0)
        overlay = testbed.overlay
        assert len(overlay.node_names()) == 4
        overlay.add_access_router("edge-2")
        assert len(overlay.node_names()) == 5
        overlay.remove_cluster("cluster-b")
        assert len(overlay.node_names()) == 4

    def test_link_requires_known_endpoints(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        overlay = testbed.overlay
        edge = overlay.routers[CLIENT_EDGE]
        faces_before = len(edge.faces())
        for a, b in ((CLIENT_EDGE, "ghost"), ("ghost", CLIENT_EDGE)):
            with pytest.raises(OverlayError, match="ghost"):
                overlay.connect(a, b)
        # Nothing half-built: no link recorded, no face opened.
        assert link_pairs(testbed) == [("cluster-a", CLIENT_EDGE)]
        assert len(edge.faces()) == faces_before

    def test_remove_node_drops_links(self, chain_testbed):
        testbed = chain_testbed(3)
        overlay = testbed.overlay
        faces_on_a = len(testbed.cluster("cluster-a").gateway_nfd.faces())
        overlay.remove_cluster("cluster-b")
        assert link_pairs(testbed) == [("cluster-a", CLIENT_EDGE)]
        assert len(testbed.cluster("cluster-a").gateway_nfd.faces()) == faces_on_a - 1
        with pytest.raises(OverlayError):
            overlay.link_up("cluster-b", "cluster-c")

    def test_remove_unknown_node_raises(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        with pytest.raises(OverlayError):
            testbed.overlay.remove_cluster("ghost")
        # An access router is a node, but not a cluster that can leave.
        with pytest.raises(OverlayError):
            testbed.overlay.remove_cluster(CLIENT_EDGE)
        assert testbed.overlay.node_names() == [CLIENT_EDGE, "cluster-a"]

    def test_unknown_node_lookup_raises(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        overlay = testbed.overlay
        with pytest.raises(OverlayError):
            overlay.client("ghost")
        with pytest.raises(OverlayError):
            overlay.reachable_compute_origins("ghost")
        with pytest.raises(OverlayError):
            overlay.link_up(CLIENT_EDGE, "ghost")
        with pytest.raises(LIDCError):
            testbed.cluster("ghost")


class TestPaths:
    """A link is the one-hop path every face's transfer delay comes from."""

    def test_transfer_time_includes_serialisation(self):
        one_gb = 10 ** 9
        link = Link("a", "b", latency_s=0.010, bandwidth_bps=1e9)
        assert link.transfer_time(one_gb) == pytest.approx(0.010 + one_gb / 1e9)
        assert link.transfer_time(0) == pytest.approx(0.010)

    def test_link_transfer_time_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            Link("a", "b").transfer_time(-1)

    def test_zero_bandwidth_link_costs_only_latency(self):
        assert Link("a", "b", latency_s=0.02, bandwidth_bps=0).transfer_time(10 ** 6) == 0.02

    @pytest.mark.parametrize("latency_s", [float("nan"), -1.0, -1e-9, float("inf")])
    def test_impossible_latency_is_rejected_at_construction(self, latency_s):
        # Caught here, not as a NaN or negative timeout on the first
        # packet sent over the link.
        with pytest.raises(SimulationError, match="latency"):
            Link("a", "b", latency_s=latency_s)

    @pytest.mark.parametrize("bandwidth_bps", [float("nan"), -5.0])
    def test_impossible_bandwidth_is_rejected_at_construction(self, bandwidth_bps):
        # ``transfer_time`` tests ``bandwidth_bps > 0``, so these would
        # drop serialisation time without a word.
        with pytest.raises(SimulationError, match="bandwidth"):
            Link("a", "b", bandwidth_bps=bandwidth_bps)

    def test_the_edge_values_stay_legal(self):
        assert Link("a", "b", latency_s=0.0).transfer_time(0) == 0.0
        assert Link("a", "b", latency_s=0.01, bandwidth_bps=float("inf")).transfer_time(10 ** 6) == 0.01

    def test_an_impossible_latency_leaves_the_overlay_unchanged(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        overlay = testbed.overlay
        overlay.add_access_router("r1")
        faces_before = len(overlay.routers[CLIENT_EDGE].faces())
        with pytest.raises(SimulationError):
            overlay.connect(CLIENT_EDGE, "r1", latency_s=float("nan"))
        assert link_pairs(testbed) == [("cluster-a", CLIENT_EDGE)]
        assert len(overlay.routers[CLIENT_EDGE].faces()) == faces_before

    def test_transfer_time_packet_uses_the_wire_size(self):
        link = Link("a", "b", latency_s=0.001, bandwidth_bps=1000.0)
        data = Data(name=Name("/a"), content=b"x" * 100)
        wire = WirePacket(data.encode())
        assert wire.size == len(data.encode())
        assert link.transfer_time_packet(wire) == pytest.approx(0.001 + wire.size / 1000.0)
        assert link.transfer_time_packet(data) == link.transfer_time_packet(wire)

    def test_shortest_path_prefers_low_latency(self, star_testbed):
        # edge --100 ms-- cluster-a, and edge --5 ms-- relay --5 ms-- cluster-a.
        testbed = star_testbed([0.100])
        relay = testbed.overlay.add_access_router("relay")
        testbed.overlay.connect(CLIENT_EDGE, "relay", latency_s=0.005)
        testbed.overlay.connect("relay", "cluster-a", latency_s=0.005)
        assert edge_compute_route(testbed).nexthops[0].cost == pytest.approx(10.0)
        assert place(testbed) == "cluster-a"
        assert relay.metrics.counter("interests_received").value >= 1

    def test_path_latency_sums_links(self):
        # edge --10 ms-- r1 --30 ms-- r2 --45 ms-- cluster-a
        testbed = LIDCTestbed.single_cluster(seed=0)
        overlay = testbed.overlay
        cluster = overlay.remove_cluster("cluster-a")
        for router in ("r1", "r2"):
            overlay.add_access_router(router)
        overlay.connect(CLIENT_EDGE, "r1", latency_s=0.010)
        overlay.connect("r1", "r2", latency_s=0.030)
        overlay.add_cluster(cluster, connect_to=[("r2", 0.045)])
        assert edge_compute_route(testbed).nexthops[0].cost == pytest.approx(10 + 30 + 45)
        submission = submit(testbed)
        assert submission.cluster == "cluster-a"
        # The ack crossed the three links twice.
        assert submission.acknowledged_at - submission.submitted_at >= 2 * 0.085

    def test_no_path_raises(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        testbed.overlay.remove_cluster("cluster-a")
        assert testbed.overlay.reachable_compute_origins(CLIENT_EDGE) == []
        consumer = Consumer(testbed.env, testbed.overlay.routers[CLIENT_EDGE])
        with pytest.raises(InterestNacked, match="NoRoute"):
            testbed.env.run(until=consumer.express_interest(
                naming.COMPUTE_PREFIX.append("anything"), lifetime=5.0))

    def test_nearest_picks_lowest_latency_candidate(self, star_testbed):
        testbed = star_testbed([0.05, 0.01, 0.03])
        testbed.overlay.use_nearest_cluster()
        assert edge_compute_route(testbed).nexthops[0].cost == pytest.approx(10.0)
        assert place(testbed) == "cluster-b"

    def test_nearest_self_short_circuits(self, star_testbed):
        # cluster-a is nearer the client edge, but a request entering at
        # cluster-b's own gateway is served there (its producer costs 0).
        testbed = star_testbed([0.005, 0.05])
        assert place(testbed, access_router="cluster-b") == "cluster-b"
        assert interests_seen(testbed, "cluster-a") == 0

    def test_nearest_unreachable_candidates_ignored(self, star_testbed):
        testbed = star_testbed([0.005, 0.02, 0.04])
        testbed.overlay.use_nearest_cluster()
        testbed.overlay.fail_cluster("cluster-a")
        assert place(testbed) == "cluster-b"
        # A partitioned cluster keeps its routes, but its link is down.
        testbed.overlay.isolate("cluster-b")
        assert place(testbed) == "cluster-c"


class TestCannedTopologies:
    def test_star(self, star_testbed):
        testbed = star_testbed([0.01, 0.02, 0.03])
        assert [(link.a, link.b, link.latency_s) for link in testbed.overlay.links()] == [
            ("cluster-a", CLIENT_EDGE, 0.01),
            ("cluster-b", CLIENT_EDGE, 0.02),
            ("cluster-c", CLIENT_EDGE, 0.03),
        ]
        assert len(edge_compute_route(testbed).nexthops) == 3

    def test_line(self, chain_testbed):
        testbed = chain_testbed(3)
        assert link_pairs(testbed) == [
            ("cluster-a", CLIENT_EDGE), ("cluster-b", "cluster-a"), ("cluster-c", "cluster-b"),
        ]
        # Every cluster down the line is reachable, through one edge face.
        assert testbed.overlay.reachable_compute_origins(CLIENT_EDGE) == [
            "cluster-a", "cluster-b", "cluster-c"]
        assert len(edge_compute_route(testbed).nexthops) == 1
