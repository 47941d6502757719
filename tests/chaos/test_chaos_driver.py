"""Injecting fault schedules into a live overlay.

Each fault kind must act through the overlay's public control surface,
revert on its paired recovery event, and — when its precondition no longer
holds — be skipped and counted rather than raised, so overlapping faults
replay identically.
"""

import pytest

from repro.chaos import ChaosDriver, ChaosSpec, FaultEvent, FaultKind, build_schedule
from repro.cluster.cluster import ClusterSpec
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.overlay import ComputeOverlay
from repro.core.spec import ComputeRequest
from repro.exceptions import OverlayError
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG


def event(t, kind, target, seq=0):
    return FaultEvent(seq=seq, t=t, kind=kind, target=target)


def make_testbed(clusters=2):
    return LIDCTestbed.multi_cluster(clusters, seed=3, load_paper_datasets=False)


def run_schedule(testbed, schedule, until=None):
    driver = ChaosDriver(testbed.env, testbed.overlay, schedule)
    driver.start()
    testbed.run(until=until)
    return driver


class TestNodeFaults:
    def test_kill_and_restart_round_trip(self):
        testbed = make_testbed()
        links_before = len(testbed.overlay.links())
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.NODE_KILL, "cluster-a", seq=0),
            event(3.0, FaultKind.NODE_RESTART, "cluster-a", seq=1),
        ], until=5.0)
        assert driver.applied == 2 and driver.skipped == 0
        assert "cluster-a" in testbed.overlay.clusters
        assert len(testbed.overlay.links()) == links_before
        assert driver.report()["still_down"] == []

    def test_kill_actually_severs_the_cluster(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.NODE_KILL, "cluster-b"),
        ], until=2.0)
        assert driver.applied == 1
        assert "cluster-b" not in testbed.overlay.clusters
        assert all(
            "cluster-b" not in (link.a, link.b)
            for link in testbed.overlay.links()
        )
        assert driver.report()["still_down"] == ["cluster-b"]

    def test_double_kill_skips_the_second(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.NODE_KILL, "cluster-a", seq=0),
            event(2.0, FaultKind.NODE_KILL, "cluster-a", seq=1),
            event(3.0, FaultKind.NODE_RESTART, "cluster-a", seq=2),
            event(4.0, FaultKind.NODE_RESTART, "cluster-a", seq=3),
        ], until=5.0)
        assert driver.applied == 2  # one kill, one restart
        assert driver.skipped == 2
        assert "cluster-a" in testbed.overlay.clusters

    def test_kill_of_unknown_cluster_is_skipped(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.NODE_KILL, "cluster-zz"),
        ], until=2.0)
        assert driver.applied == 0 and driver.skipped == 1
        assert driver.records[0].detail == "no such cluster"

    def test_restarted_cluster_serves_requests_again(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=3)  # with paper datasets
        run_schedule(testbed, [
            event(0.5, FaultKind.NODE_KILL, "cluster-a", seq=0),
            event(1.0, FaultKind.NODE_KILL, "cluster-b", seq=1),
            event(2.0, FaultKind.NODE_RESTART, "cluster-a", seq=2),
            event(2.5, FaultKind.NODE_RESTART, "cluster-b", seq=3),
        ], until=3.0)
        outcome = testbed.submit_and_wait(ComputeRequest(
            app="BLAST", cpu=2, memory_gb=4, dataset="SRR2931415", reference="HUMAN"))
        assert outcome.succeeded


class TestLinkFaults:
    def test_flap_downs_then_restores_the_link(self):
        testbed = make_testbed()
        target = f"cluster-a|{CLIENT_EDGE}"
        driver = ChaosDriver(testbed.env, testbed.overlay, [
            event(1.0, FaultKind.LINK_DOWN, target, seq=0),
            event(2.0, FaultKind.LINK_UP, target, seq=1),
        ])
        driver.start()
        testbed.run(until=1.5)
        assert not testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        testbed.run(until=2.5)
        assert testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        assert driver.applied == 2

    def test_flap_of_missing_link_is_skipped(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.LINK_DOWN, "cluster-a|cluster-b"),
        ], until=2.0)
        assert driver.applied == 0 and driver.skipped == 1

    def test_flap_of_a_killed_clusters_link_is_skipped(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.NODE_KILL, "cluster-a", seq=0),
            event(1.5, FaultKind.LINK_DOWN, f"cluster-a|{CLIENT_EDGE}", seq=1),
        ], until=2.0)
        assert driver.applied == 1 and driver.skipped == 1


class TestPartitionFaults:
    def test_partition_and_heal(self):
        testbed = make_testbed()
        driver = ChaosDriver(testbed.env, testbed.overlay, [
            event(1.0, FaultKind.PARTITION, "cluster-a", seq=0),
            event(2.0, FaultKind.HEAL, "cluster-a", seq=1),
        ])
        driver.start()
        testbed.run(until=1.5)
        assert not testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        assert "cluster-a" in testbed.overlay.clusters  # links down, node alive
        testbed.run(until=2.5)
        assert testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        assert driver.report()["still_partitioned"] == []

    def test_heal_without_partition_is_skipped(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.HEAL, "cluster-a"),
        ], until=2.0)
        assert driver.skipped == 1

    def test_kill_of_partitioned_cluster_forgets_the_partition(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.PARTITION, "cluster-a", seq=0),
            event(1.5, FaultKind.NODE_KILL, "cluster-a", seq=1),
            event(2.0, FaultKind.HEAL, "cluster-a", seq=2),  # skipped: dead
            event(2.5, FaultKind.NODE_RESTART, "cluster-a", seq=3),
        ], until=3.0)
        assert driver.applied == 3 and driver.skipped == 1
        report = driver.report()
        assert report["still_down"] == [] and report["still_partitioned"] == []
        assert testbed.overlay.link_up("cluster-a", CLIENT_EDGE)


class TestShardCrash:
    @staticmethod
    def sharded_overlay():
        env = Environment()
        overlay = ComputeOverlay(env)
        overlay.add_access_router(CLIENT_EDGE)
        cluster = LIDCCluster(
            env, ClusterSpec(name="shardy", node_count=2),
            gateway_shards=2, load_paper_datasets=False,
        )
        overlay.add_cluster(cluster, connect_to=[(CLIENT_EDGE, 0.02)])
        return env, overlay, cluster

    def test_crash_applies_on_a_sharded_gateway(self):
        env, overlay, cluster = self.sharded_overlay()
        driver = ChaosDriver(env, overlay, [
            event(1.0, FaultKind.SHARD_CRASH, "shardy/1"),
        ])
        driver.start()
        env.run(until=2.0)
        assert driver.applied == 1
        assert len(cluster.gateway_nfd.shards[1].cs) == 0

    def test_crash_of_missing_shard_index_is_skipped(self):
        env, overlay, _cluster = self.sharded_overlay()
        driver = ChaosDriver(env, overlay, [
            event(1.0, FaultKind.SHARD_CRASH, "shardy/7"),
        ])
        driver.start()
        env.run(until=2.0)
        assert driver.skipped == 1
        assert "no shard 7" in driver.records[0].detail

    def test_crash_on_unsharded_gateway_is_skipped(self):
        testbed = make_testbed()  # plain Forwarder gateways
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.SHARD_CRASH, "cluster-a/0"),
        ], until=2.0)
        assert driver.skipped == 1
        assert driver.records[0].detail == "gateway is not sharded"


class TestProducerChurn:
    def test_churn_withdraws_and_reannounces(self):
        testbed = make_testbed()
        edge = testbed.overlay.routers[CLIENT_EDGE]
        assert edge.fib.lookup("/ndn/k8s/compute/x") is not None
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.PRODUCER_CHURN, "cluster-a"),
        ], until=2.0)
        assert driver.applied == 1
        # The route survives the churn (withdraw immediately re-announced).
        assert edge.fib.lookup("/ndn/k8s/compute/x") is not None

    def test_churn_on_dead_cluster_is_skipped(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.NODE_KILL, "cluster-a", seq=0),
            event(1.5, FaultKind.PRODUCER_CHURN, "cluster-a", seq=1),
        ], until=2.0)
        assert driver.applied == 1 and driver.skipped == 1


class TestDriverMechanics:
    def test_events_fire_at_their_scheduled_times(self):
        testbed = make_testbed()
        driver = ChaosDriver(testbed.env, testbed.overlay, [
            event(1.0, FaultKind.PARTITION, "cluster-a", seq=0),
            event(4.0, FaultKind.HEAL, "cluster-a", seq=1),
        ])
        driver.start()
        testbed.run(until=2.0)
        assert len(driver.records) == 1
        testbed.run(until=5.0)
        assert len(driver.records) == 2

    def test_start_twice_raises(self):
        testbed = make_testbed()
        driver = ChaosDriver(testbed.env, testbed.overlay, [])
        driver.start()
        with pytest.raises(OverlayError):
            driver.start()

    def test_report_shape(self):
        testbed = make_testbed()
        driver = run_schedule(testbed, [
            event(1.0, FaultKind.PARTITION, "cluster-a", seq=0),
            event(2.0, FaultKind.HEAL, "cluster-a", seq=1),
            event(2.5, FaultKind.NODE_KILL, "cluster-zz", seq=2),
        ], until=3.0)
        report = driver.report()
        assert report["events"] == 3
        assert report["fired"] == 3
        assert report["applied"] == 2
        assert report["skipped"] == 1
        assert report["by_kind"] == {"partition": 1, "heal": 1}

    def test_injections_land_in_the_trace(self):
        testbed = make_testbed()
        run_schedule(testbed, [
            event(1.0, FaultKind.PARTITION, "cluster-a", seq=0),
            event(2.0, FaultKind.HEAL, "cluster-a", seq=1),
        ], until=3.0)
        chaos_records = testbed.tracer.filter(category="chaos")
        assert [entry.event for entry in chaos_records] == ["partition", "heal"]

    def test_recorded_schedule_replays_on_a_new_driver(self):
        """A schedule is a plain list of events: handed to a driver over a
        fresh overlay it applies and skips exactly as the first run did."""
        schedule = build_schedule(ChaosSpec(
            label="replay", horizon_s=30.0,
            clusters=("cluster-a", "cluster-b", "cluster-zz"),
            links=(("cluster-a", CLIENT_EDGE), ("cluster-b", CLIENT_EDGE)),
            producers=("cluster-a", "cluster-b"),
            kills=2, flaps=2, partitions=2, churns=2,
        ), SeededRNG(5))

        def replay(events):
            testbed = make_testbed()
            driver = run_schedule(testbed, list(events), until=31.0)
            ledger = [(r.event, r.applied, r.detail) for r in driver.records]
            chaos = [entry.event for entry in testbed.tracer.filter(category="chaos")]
            return ledger, driver.report(), chaos

        first = replay(schedule)
        assert [event for event, _, _ in first[0]] == schedule
        assert first[1]["applied"] > 0 and first[1]["skipped"] > 0
        assert replay(schedule) == first

    def test_a_slice_of_a_schedule_replays_alone(self):
        schedule = [
            event(1.0, FaultKind.PRODUCER_CHURN, "cluster-b", seq=0),
            event(2.0, FaultKind.NODE_KILL, "cluster-a", seq=1),
            event(3.0, FaultKind.PARTITION, "cluster-b", seq=2),
            event(4.0, FaultKind.NODE_RESTART, "cluster-a", seq=3),
            event(5.0, FaultKind.HEAL, "cluster-b", seq=4),
        ]
        driver = run_schedule(make_testbed(), schedule[1:4:2], until=6.0)
        assert [record.event for record in driver.records] == schedule[1:4:2]
        report = driver.report()
        assert report["applied"] == 2
        assert report["by_kind"] == {"node-kill": 1, "node-restart": 1}
        assert report["still_down"] == [] and report["still_partitioned"] == []
