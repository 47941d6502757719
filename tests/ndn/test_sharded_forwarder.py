"""Tests for the sharded forwarder data plane."""

import pytest

from repro.exceptions import InterestNacked, NDNError
from repro.ndn.client import Consumer
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import Data, WirePacket
from repro.ndn.shard import (
    ShardedForwarder,
    forwarder_for_node,
    rendezvous_for_key,
    rendezvous_for_name,
    shard_key,
)
from repro.sim.engine import Environment
from repro.sim.topology import Link, TopologyNode

TENANTS = [f"/t{i}" for i in range(8)]


def attach_tenant_producers(node, tenants=TENANTS):
    for tenant in tenants:
        def handler(interest, _tenant=tenant):
            return Data(name=interest.name, content=b"from:" + _tenant.encode()).sign()
        node.attach_producer(tenant, handler)


class TestInlineSharding:
    def test_exchange_across_shards_with_endpoint_only_decodes(self, env):
        node = ShardedForwarder(env, name="node", shards=3)
        attach_tenant_producers(node)
        consumer = Consumer(env, node)
        before = WirePacket.wire_decodes
        completions = [
            consumer.express_interest(f"{tenant}/obj/{i}")
            for i in range(4) for tenant in TENANTS
        ]
        env.run()
        assert all(c.triggered and c.ok for c in completions)
        assert consumer.pending_count() == 0
        assert node.pit_entries() == 0
        # One decode per Data — at the consumer; zero in transit across the
        # dispatcher/shard boundaries.
        assert WirePacket.wire_decodes - before == len(completions)
        # Work actually spread across shards.
        used = [s for s in node.shard_stats()
                if s["metrics"].get("interests_received", 0) > 0]
        assert len(used) >= 2

    def test_packets_land_on_their_owning_shard(self, env):
        """Byte-level dispatch agrees with the Name-level partitioning."""
        node = ShardedForwarder(env, name="node", shards=4)
        attach_tenant_producers(node)
        consumer = Consumer(env, node)
        env.run(until=env.all_of(
            [consumer.express_interest(f"{tenant}/only") for tenant in TENANTS]
        ))
        owners = [rendezvous_for_name(f"{tenant}/only", 4) for tenant in TENANTS]
        for index, shard in enumerate(node.shards):
            received = shard.metrics.counter("interests_received").value
            assert received == owners.count(index)

    def test_external_route_and_per_shard_caching(self, env):
        node = ShardedForwarder(env, name="edge", shards=2, cs_capacity=64)
        origin = Forwarder(env, name="origin", cs_capacity=0)
        served = []

        def handler(interest):
            served.append(interest.name)
            return Data(name=interest.name, content=b"origin").sign()

        origin.attach_producer("/svc", handler)
        edge_face, _origin_face = connect(
            env, node, origin, link=Link("e", "o", latency_s=0.001), label="e-o"
        )
        node.register_prefix("/svc", edge_face)
        consumer = Consumer(env, node)
        first = consumer.express_interest("/svc/item")
        env.run()
        assert first.ok and first.value.content == b"origin"
        assert len(served) == 1
        # The owning shard cached the Data: a repeat is a CS hit, the origin
        # is not asked again.
        second = consumer.express_interest("/svc/item")
        env.run()
        assert second.ok
        assert len(served) == 1
        owner = rendezvous_for_name("/svc/item", 2)
        assert node.shards[owner].cs.hits == 1

    def test_short_prefix_spans_every_shard(self, env):
        node = ShardedForwarder(env, name="node", shards=3, key_depth=2)
        calls = []

        def handler(interest):
            calls.append(interest.name)
            return Data(name=interest.name, content=b"wide").sign()

        # One component < key_depth 2: the producer must be reachable for
        # names on any shard.
        node.attach_producer("/api", handler)
        consumer = Consumer(env, node)
        completions = [
            consumer.express_interest(f"/api/v{i}/op") for i in range(9)
        ]
        env.run()
        assert all(c.ok for c in completions)
        assert len(calls) == 9

    def test_unrouted_interest_is_nacked_back(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        consumer = Consumer(env, node)
        completion = consumer.express_interest("/nowhere/road")
        env.run()
        assert completion.triggered and not completion.ok
        with pytest.raises(InterestNacked):
            raise completion.value
        assert node.pit_entries() == 0

    def test_register_prefix_on_unknown_face_raises(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        with pytest.raises(NDNError):
            node.register_prefix("/p", 99)

    def test_remove_face_purges_routes_and_boundary_pairs(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        origin = Forwarder(env, name="origin")
        edge_face, _ = connect(env, node, origin, label="e-o")
        node.register_prefix("/svc", edge_face)
        assert len(node.fib) == 1
        node.remove_face(edge_face.face_id)
        assert len(node.fib) == 0
        assert node.faces() == {}
        assert all(len(shard.fib) == 0 for shard in node.shards)

    def test_fib_facade_supports_routing_daemon_operations(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        origin = Forwarder(env, name="origin")
        edge_face, _ = connect(env, node, origin, label="e-o")
        node.fib.add_route("/learned", edge_face.face_id, cost=2.0)
        assert len(node.fib) == 1
        assert node.fib.remove_route("/learned", edge_face.face_id) is True
        assert node.fib.remove_route("/learned", edge_face.face_id) is False
        assert len(node.fib) == 0

    def test_cs_capacity_split_preserves_total(self, env):
        node = ShardedForwarder(env, name="node", shards=3, cs_capacity=10)
        per_shard = [shard.cs.capacity for shard in node.shards]
        assert sum(per_shard) == 10
        assert max(per_shard) - min(per_shard) <= 1


class TestServiceTimeModel:
    #: A wider tenant population than TENANTS: rendezvous hashing balances
    #: statistically, so the scaling assertion needs enough distinct keys.
    MODEL_TENANTS = [f"/u{i:03d}" for i in range(64)]

    @classmethod
    def run_workload(cls, shards, shard_service_s=1.0, dispatch_service_s=0.01):
        env = Environment()
        node = ShardedForwarder(
            env, name="node", shards=shards,
            shard_service_s=shard_service_s, dispatch_service_s=dispatch_service_s,
        )
        attach_tenant_producers(node, cls.MODEL_TENANTS)
        consumer = Consumer(env, node)
        completions = [
            consumer.express_interest(f"{tenant}/obj", lifetime=10_000.0)
            for tenant in cls.MODEL_TENANTS
        ]
        # Stop at the last Data, not at queue drain: the pending Interest
        # watchdogs would otherwise run the clock to the lifetime horizon.
        env.run(until=env.all_of(completions))
        assert all(c.ok for c in completions)
        return env.now, node

    def test_modelled_parallelism_shortens_the_makespan(self):
        from collections import Counter

        makespan_1, _ = self.run_workload(shards=1)
        makespan_2, _ = self.run_workload(shards=2)
        makespan_4, _ = self.run_workload(shards=4)
        # Sixty-four 1-second jobs on one modelled core take ~64 s; on N
        # cores the makespan is the busiest shard's share of the keys — the
        # queueing model must agree with the actual hash split, not with an
        # assumed perfect one.
        assert makespan_1 == pytest.approx(len(self.MODEL_TENANTS), abs=0.5)
        for shards, makespan in ((2, makespan_2), (4, makespan_4)):
            split = Counter(
                rendezvous_for_name(f"{tenant}/obj", shards)
                for tenant in self.MODEL_TENANTS
            )
            assert makespan == pytest.approx(max(split.values()), abs=0.5)
        assert makespan_2 < makespan_1 / 1.4
        assert makespan_4 < makespan_2

    def test_modelled_runs_are_deterministic(self):
        first, node_a = self.run_workload(shards=3)
        second, node_b = self.run_workload(shards=3)
        assert first == second
        assert node_a.stats()["shard_stats"] == node_b.stats()["shard_stats"]

    def test_zero_service_time_runs_synchronously(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        attach_tenant_producers(node)
        consumer = Consumer(env, node)
        completion = consumer.express_interest("/t0/sync")
        env.run(until=completion)
        assert completion.ok
        assert env.now < 1e-9  # no modelled service time was spent


class TestTopologyIntegration:
    def test_forwarder_for_node_builds_by_shard_count(self, env):
        plain = forwarder_for_node(env, TopologyNode("gw"), cs_capacity=16, key_depth=3)
        assert isinstance(plain, Forwarder)
        sharded = forwarder_for_node(
            env, TopologyNode("gw2", shards=3), cs_capacity=16, key_depth=3
        )
        assert isinstance(sharded, ShardedForwarder)
        assert sharded.num_shards == 3 and sharded.key_depth == 3

    def test_forwarder_for_node_honours_declared_weights(self, env):
        node = TopologyNode("gw3", shards=3, shard_weights=(1.0, 2.0, 1.0))
        sharded = forwarder_for_node(env, node, cs_capacity=16)
        assert isinstance(sharded, ShardedForwarder)
        # Ownership decisions go through the weighted rendezvous picker.
        for tenant in TENANTS:
            assert sharded._picker(shard_key(tenant, 1)) == rendezvous_for_key(
                shard_key(tenant, 1), 3, (1.0, 2.0, 1.0)
            )

    def test_topology_node_rejects_nonpositive_shards(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            TopologyNode("bad", shards=0)

    def test_topology_node_validates_shard_weights(self):
        from repro.exceptions import SimulationError

        with pytest.raises(SimulationError):
            TopologyNode("bad", shards=2, shard_weights=(1.0,))
        with pytest.raises(SimulationError):
            TopologyNode("bad", shards=2, shard_weights=(1.0, -1.0))
        TopologyNode("ok", shards=2, shard_weights=(1.0, 2.0))
