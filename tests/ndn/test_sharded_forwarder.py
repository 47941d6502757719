"""Tests for the sharded forwarder data plane."""

import pytest

from repro.exceptions import InterestNacked, NDNError
from repro.ndn.client import Consumer
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import Data, WirePacket
from repro.ndn.shard import (
    ShardedForwarder,
    _rendezvous_for_key,
    _shard_key,
)
from repro.sim.engine import Environment
from repro.sim.topology import Link

TENANTS = [f"/t{i}" for i in range(8)]


def owner(name, shards):
    """The shard that owns ``name`` under the default key depth."""
    return _rendezvous_for_key(_shard_key(name), shards)


def attach_tenant_producers(node, tenants=TENANTS):
    for tenant in tenants:
        def handler(interest, _tenant=tenant):
            return Data(name=interest.name, content=b"from:" + _tenant.encode())
        node.attach_producer(tenant, handler)


def shard_counters(node):
    """Every shard's CS, PIT, registry and per-face counters, in shard order."""
    return [
        {
            "name": shard.name,
            "fib": len(shard.fib),
            "cs": (len(shard.cs), shard.cs.hits, shard.cs.misses,
                   shard.cs.insertions, shard.cs.evictions),
            "pit": (len(shard.pit), shard.pit.aggregated, shard.pit.satisfied,
                    shard.pit.expired),
            "metrics": shard.metrics.snapshot(),
            "faces": {face_id: face.stats.as_dict()
                      for face_id, face in shard.faces().items()},
        }
        for shard in node.shards
    ]


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
        used = [s for s in node.shards
                if s.metrics.counter("interests_received").value > 0]
        assert len(used) >= 2

    def test_dispatcher_counts_every_arriving_packet(self, env):
        """Hot-cache answers are dispatched packets the shards never see."""
        node = ShardedForwarder(env, name="node", shards=3)
        for tenant in TENANTS:
            node.attach_producer(tenant, lambda interest: Data(
                name=interest.name, content=b"x", freshness_period=10.0))
        consumer = Consumer(env, node)
        names = [f"{tenant}/obj" for tenant in TENANTS]

        def received():
            return sum(s.metrics.counter("interests_received").value for s in node.shards)

        env.run(until=env.all_of([consumer.express_interest(n) for n in names]))
        assert node.metrics.snapshot() == {
            "packets_dispatched": len(names), "packets_dropped_no_face": 0,
        }
        assert received() == len(names)
        env.run(until=env.all_of([consumer.express_interest(n) for n in names]))
        assert node.metrics.counter("packets_dispatched").value == 2 * len(names)
        assert node.hot_cache.hits == len(names)
        assert received() == len(names)

    @pytest.mark.parametrize("kind", [Forwarder, ShardedForwarder])
    def test_each_node_owns_its_registry(self, env, kind):
        first, second = kind(env, name="first"), kind(env, name="second")
        assert first.metrics is not second.metrics
        with pytest.raises(TypeError):
            kind(env, name="third", metrics=first.metrics)

    def test_packets_land_on_their_owning_shard(self, env):
        """Byte-level dispatch agrees with the Name-level partitioning."""
        node = ShardedForwarder(env, name="node", shards=4)
        attach_tenant_producers(node)
        consumer = Consumer(env, node)
        env.run(until=env.all_of(
            [consumer.express_interest(f"{tenant}/only") for tenant in TENANTS]
        ))
        owners = [owner(f"{tenant}/only", 4) for tenant in TENANTS]
        for index, shard in enumerate(node.shards):
            received = shard.metrics.counter("interests_received").value
            assert received == owners.count(index)

    def test_external_route_and_per_shard_caching(self, env):
        node = ShardedForwarder(env, name="edge", shards=2, cs_capacity=64)
        origin = Forwarder(env, name="origin", cs_capacity=0)
        served = []

        def handler(interest):
            served.append(interest.name)
            return Data(name=interest.name, content=b"origin")

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
        owning = owner("/svc/item", 2)
        assert node.shards[owning].cs.hits == 1

    def test_short_prefix_spans_every_shard(self, env):
        node = ShardedForwarder(env, name="node", shards=3, key_depth=2)
        calls = []

        def handler(interest):
            calls.append(interest.name)
            return Data(name=interest.name, content=b"wide")

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
        # Stop at the last Data, not at queue drain: the disarmed lifetime
        # Timeouts would otherwise run the clock to the lifetime horizon.
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
                owner(f"{tenant}/obj", shards)
                for tenant in self.MODEL_TENANTS
            )
            assert makespan == pytest.approx(max(split.values()), abs=0.5)
        assert makespan_2 < makespan_1 / 1.5
        assert makespan_4 < makespan_2

    def test_modelled_runs_are_deterministic(self):
        first, node_a = self.run_workload(shards=3)
        second, node_b = self.run_workload(shards=3)
        assert first == second
        assert shard_counters(node_a) == shard_counters(node_b)

    def test_zero_service_time_runs_synchronously(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        attach_tenant_producers(node)
        consumer = Consumer(env, node)
        completion = consumer.express_interest("/t0/sync")
        env.run(until=completion)
        assert completion.ok
        assert env.now < 1e-9  # no modelled service time was spent
