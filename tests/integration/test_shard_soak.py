"""Soak test for the sharded forwarder data plane.

A 2-shard node sustains a thousand interleaved Interest/Data exchanges and
must come out clean: no PIT entry leaked on any shard, no consumer session
leaked, not a single wire-level decode in transit (the only decodes are the
consumer materialising each Data), and the boundary byte counters balance
exactly across every dispatcher↔shard pipe, in both directions.
"""

import json

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.spec import ComputeRequest
from repro.ndn.client import Consumer
from repro.ndn.packet import Data, WirePacket
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment

TENANTS = [f"/soak{i}" for i in range(10)]
WAVES = 20
PER_WAVE = 50  # 20 waves x 50 = 1000 exchanges


@pytest.fixture
def soak_node(env):
    node = ShardedForwarder(env, name="soak", shards=2, cs_capacity=0)
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant):
            return Data(
                name=interest.name, content=b"payload:" + _tenant.encode()
            )
        node.attach_producer(tenant, handler)
    return node


class TestShardSoak:
    def test_thousand_interleaved_exchanges_leak_nothing(self, env, soak_node):
        consumer = Consumer(env, soak_node, name="soak-client")
        decodes_before = WirePacket.wire_decodes
        total = 0
        for wave in range(WAVES):
            completions = []
            for i in range(PER_WAVE):
                # Interleave tenants (and therefore shards) within the wave.
                tenant = TENANTS[(wave + i) % len(TENANTS)]
                completions.append(
                    consumer.express_interest(f"{tenant}/wave{wave}/obj{i}")
                )
            for done in completions:
                env.run(until=done)
            assert all(c.ok for c in completions)
            total += len(completions)
            # Between waves the data plane must already be clean: the PIT
            # drains per exchange, not at teardown.
            assert soak_node.pit_entries() == 0
        assert total == WAVES * PER_WAVE

        # Zero leaks after the full soak.
        assert consumer.pending_count() == 0
        assert soak_node.pit_entries() == 0

        # Exactly one decode per exchange — the consumer's endpoint decode.
        # Zero additional decodes means nothing in transit (dispatcher,
        # boundary pipes, shard forwarders, producers) ever materialised a
        # packet object.
        assert WirePacket.wire_decodes - decodes_before == total

        # FaceStats balance across every pipe boundary, both directions,
        # and the soak actually used both shards.
        boundary = soak_node.boundary_stats()
        used_shards = set()
        for (ext_id, shard_index), counters in boundary.items():
            dispatcher, shard = counters["dispatcher"], counters["shard"]
            assert dispatcher["bytes_out"] == shard["bytes_in"]
            assert shard["bytes_out"] == dispatcher["bytes_in"]
            assert dispatcher["interests_out"] == shard["interests_in"]
            assert shard["data_out"] == dispatcher["data_in"]
            assert dispatcher["drops"] == 0 and shard["drops"] == 0
            if shard["bytes_in"] > 0:
                used_shards.add(shard_index)
        assert used_shards == {0, 1}

        # The external face saw every exchange: one Interest in and one
        # Data out per exchange, byte-for-byte what crossed the boundaries.
        (ext_face,) = soak_node.faces().values()
        assert ext_face.stats.interests_in == total
        assert ext_face.stats.data_out == total
        total_in_across_pipes = sum(
            counters["shard"]["bytes_in"] for counters in boundary.values()
        )
        assert total_in_across_pipes == ext_face.stats.bytes_in

    def test_expired_interests_do_not_leak_pit_entries(self, env, soak_node):
        """Unanswerable Interests (no route) churn through NACKs and leave
        nothing behind; short-lived satisfied traffic around them keeps the
        lazy expiry swept."""
        consumer = Consumer(env, soak_node, name="churn-client")
        outcomes = []
        for round_index in range(10):
            nacked = [
                consumer.express_interest(f"/void/r{round_index}/{i}", lifetime=0.2)
                for i in range(10)
            ]
            served = [
                consumer.express_interest(f"{TENANTS[i % len(TENANTS)]}/r{round_index}/{i}")
                for i in range(10)
            ]
            env.run()
            outcomes.extend(nacked + served)
            assert all(c.ok for c in served)
            assert all(c.triggered and not c.ok for c in nacked)
        for shard in soak_node.shards:
            shard.pit.expire()
            assert len(shard.pit) == 0
        assert consumer.pending_count() == 0


class TestHotCacheSoak:
    def test_repeat_name_waves_stay_coherent_and_clean(self, env):
        """A repeat-heavy workload: every name is requested five times.
        Repeats are served by the dispatcher hot cache (the shards never
        see them), yet the external face still answers every exchange,
        each delivered Data decodes exactly once at the consumer, and
        nothing leaks."""
        node = ShardedForwarder(env, name="hot-soak", shards=2, cs_capacity=256)
        for tenant in TENANTS:
            def handler(interest, _tenant=tenant):
                return Data(
                    name=interest.name, content=b"hot:" + _tenant.encode(),
                    freshness_period=3600.0,
                )
            node.attach_producer(tenant, handler)
        consumer = Consumer(env, node, name="hot-client")
        decodes_before = WirePacket.wire_decodes
        repeats = 5
        distinct = 100
        total = 0
        for wave in range(repeats):
            completions = [
                consumer.express_interest(f"{TENANTS[i % len(TENANTS)]}/hot/obj{i}")
                for i in range(distinct)
            ]
            for done in completions:
                env.run(until=done)
            assert all(c.ok for c in completions)
            total += len(completions)
            assert node.pit_entries() == 0
        assert total == repeats * distinct

        # Wave 1 primed the shards; waves 2..5 were hot-cache hits.
        assert node.hot_cache is not None
        assert node.hot_cache.hits == (repeats - 1) * distinct
        shard_interests = sum(
            shard.metrics.counter("interests_received").value for shard in node.shards
        )
        assert shard_interests == distinct
        # Exactly one decode per delivered Data — hot-served clones decode
        # at the consumer like any other view, and nothing in transit did.
        assert WirePacket.wire_decodes - decodes_before == total
        (ext_face,) = node.faces().values()
        assert ext_face.stats.interests_in == total
        assert ext_face.stats.data_out == total
        assert consumer.pending_count() == 0


class TestFlashCrowdSoak:
    """A flash-crowd spike (seeded workload model) through a sharded node
    with the dispatcher hot cache on: the spike is absorbed by the cache,
    a producer re-install mid-spike never lets a stale frame out, and the
    node comes out leak-free with exact frame ledgers."""

    FC_TENANTS = [f"/fc{i}" for i in range(8)]

    def _install_producers(self, node, state: dict):
        """Attach one producer per tenant whose replies follow ``state``
        live (version bytes + freshness), so a mid-run re-install only has
        to flip the box and re-attach: every producer face — old or new —
        answers with the current version."""
        for tenant in self.FC_TENANTS:
            def handler(interest, _tenant=tenant, _state=state):
                version, freshness = _state["version"], _state["freshness"]
                return Data(
                    name=interest.name,
                    content=version + _tenant.encode(),
                    freshness_period=freshness,
                )
            node.attach_producer(tenant, handler)

    def _spike_spec(self, label: str, catalog, must_be_fresh: bool):
        from repro.workload import (
            FlashCrowdArrivals,
            SpikeWindow,
            WorkloadSpec,
            ZipfPopularity,
        )

        return WorkloadSpec(
            label=label,
            popularity=ZipfPopularity(
                alpha=1.4, catalog=catalog, stream=f"pop:{label}"
            ),
            arrivals=FlashCrowdArrivals(
                100.0,
                [SpikeWindow(start_s=0.2, duration_s=1.0, multiplier=10.0)],
                stream=f"arr:{label}",
            ),
            requests=500,
            must_be_fresh=must_be_fresh,
        )

    def test_spike_with_mid_spike_reinstall_stays_coherent_and_clean(self, env):
        from repro.sim.rng import SeededRNG
        from repro.workload import WorkloadDriver, make_catalog

        catalog = make_catalog(32, tenants=self.FC_TENANTS)
        node = ShardedForwarder(
            env, name="flash", shards=2, cs_capacity=256, hot_cache=128
        )
        # v1 content with a short freshness window: once the re-install
        # gap below has elapsed, nothing may legally serve v1 again.
        state = {"version": b"v1:", "freshness": 0.5}
        self._install_producers(node, state)
        decodes_before = WirePacket.wire_decodes
        rng = SeededRNG(20260808)

        # ---- spike, first half: the hot cache absorbs the crowd.
        phase1_contents: list[bytes] = []
        driver1 = WorkloadDriver(
            env, node, self._spike_spec("spike-1", catalog, must_be_fresh=False),
            rng=rng.spawn("phase-1"),
            on_data=lambda record, data: phase1_contents.append(bytes(data.content)),
        )
        report1 = driver1.run()
        assert report1.satisfied == report1.requests
        assert all(content.startswith(b"v1:") for content in phase1_contents)
        hot = node.hot_cache
        assert hot is not None
        # A skewed crowd over 32 names: the overwhelming majority of the
        # spike never reaches a shard.
        assert hot.hits > report1.requests // 2
        assert node.pit_entries() == 0

        # ---- mid-spike producer re-install: new content, long freshness.
        state["version"], state["freshness"] = b"v2:", 3600.0
        self._install_producers(node, state)
        assert hot.invalidations >= len(self.FC_TENANTS)
        # Let every v1 copy (shard CS and consumer-side) go stale.
        env.run(until=env.now + 0.6)

        # ---- spike, second half: MustBeFresh traffic — stale v1 cannot
        # be served by any tier, so every answer must be v2.
        phase2_contents: list[bytes] = []
        hot_hits_before_phase2 = hot.hits
        driver2 = WorkloadDriver(
            env, node, self._spike_spec("spike-2", catalog, must_be_fresh=True),
            rng=rng.spawn("phase-2"),
            on_data=lambda record, data: phase2_contents.append(bytes(data.content)),
        )
        report2 = driver2.run()
        assert report2.satisfied == report2.requests
        assert all(content.startswith(b"v2:") for content in phase2_contents), (
            "stale pre-reinstall content served after producer re-install"
        )
        # The cache re-engaged on the new version: the second half of the
        # crowd is absorbed at the dispatcher again, serving v2 frames.
        assert hot.hits - hot_hits_before_phase2 > report2.requests // 2

        # ---- zero leaks, exact ledgers.
        total = report1.satisfied + report2.satisfied
        assert node.pit_entries() == 0
        assert driver1.consumer.pending_count() == 0
        assert driver2.consumer.pending_count() == 0
        # One decode per delivered Data (the consumer endpoint), nothing
        # in transit ever materialised a packet.
        assert WirePacket.wire_decodes - decodes_before == total
        used_shards = set()
        for (_ext_id, shard_index), counters in node.boundary_stats().items():
            dispatcher, shard = counters["dispatcher"], counters["shard"]
            assert dispatcher["bytes_out"] == shard["bytes_in"]
            assert shard["bytes_out"] == dispatcher["bytes_in"]
            assert dispatcher["interests_out"] == shard["interests_in"]
            assert shard["data_out"] == dispatcher["data_in"]
            assert dispatcher["drops"] == 0 and shard["drops"] == 0
            if shard["bytes_in"] > 0:
                used_shards.add(shard_index)
        assert used_shards == {0, 1}

    def test_identical_seed_reproduces_the_same_spike(self, env):
        """The soak's workload is itself deterministic: a fresh node and
        driver at the same seed produce the identical request trace."""
        from repro.sim.rng import SeededRNG
        from repro.workload import WorkloadDriver, make_catalog

        catalog = make_catalog(32, tenants=self.FC_TENANTS)

        def run_spike():
            local_env = Environment()
            node = ShardedForwarder(
                local_env, name="det-flash", shards=2,
                cs_capacity=256, hot_cache=128,
            )
            self._install_producers(node, {"version": b"v1:", "freshness": 3600.0})
            driver = WorkloadDriver(
                local_env, node,
                self._spike_spec("det", catalog, must_be_fresh=False),
                rng=SeededRNG(31337).spawn("soak"),
            )
            report = driver.run()
            hot = node.hot_cache
            counters = {
                "hot_cache": (hot.hits, hot.misses, hot.insertions,
                              hot.invalidations, hot.expirations, hot.evictions),
                "shard_cs": [(shard.cs.hits, shard.cs.misses) for shard in node.shards],
                "shard_interests": [
                    shard.metrics.counter("interests_received").value
                    for shard in node.shards
                ],
            }
            return report.trace_hash, counters

        (hash_a, cache_a), (hash_b, cache_b) = run_spike(), run_spike()
        assert hash_a == hash_b
        assert cache_a == cache_b


class TestShardedGatewaySoak:
    def test_two_shard_cluster_serves_compute_and_status(self, env):
        """The LIDC stack on a 2-shard gateway: jobs accepted, status
        polled, the shards' faces carried the bytes, nothing leaked."""
        cluster = LIDCCluster(
            env, ClusterSpec(name="shardy", node_count=2), gateway_shards=2
        )
        consumer = Consumer(env, cluster.gateway_nfd, name="client")
        decodes_before = WirePacket.wire_decodes
        acks = []
        for i, dataset in enumerate(("SRR2931415", "SRR5139395")):
            data = env.run(until=consumer.express_interest(
                ComputeRequest(
                    app="BLAST", cpu=2, memory_gb=4,
                    dataset=dataset, reference="HUMAN",
                ).to_name(),
                lifetime=5.0,
            ))
            acks.append(json.loads(data.content_text()))
        assert all(ack["accepted"] for ack in acks)

        status = env.run(until=consumer.express_interest(
            acks[0]["status_name"], lifetime=5.0, must_be_fresh=True
        ))
        assert json.loads(status.content_text())["state"] in (
            "Pending", "Running", "Completed"
        )

        # Each consumer-visible Data decoded exactly once at the endpoint;
        # the gateway's producers answer off lazy views.
        assert WirePacket.wire_decodes - decodes_before == len(acks) + 1

        shard_bytes_in = [
            sum(face.stats.bytes_in for face in shard.faces().values())
            for shard in cluster.gateway_nfd.shards
        ]
        assert len(shard_bytes_in) == 2 and sum(shard_bytes_in) > 0
        assert cluster.gateway_nfd.pit_entries() == 0
        assert consumer.pending_count() == 0
