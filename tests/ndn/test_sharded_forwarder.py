"""Tests for the sharded forwarder data plane."""

import pytest

from repro.exceptions import InterestNacked, NDNError
from repro.ndn.client import Consumer
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, WirePacket, encode_name_value
from repro.ndn.shard import (
    ShardedForwarder,
    _key_from_name_bytes,
    _rendezvous_for_key,
)
from repro.sim.engine import Environment
from repro.sim.topology import Link

TENANTS = [f"/t{i}" for i in range(8)]


def owner(name, shards):
    """The shard that owns ``name`` under the default key depth."""
    key = _key_from_name_bytes(encode_name_value(Name(name)), 1)
    return _rendezvous_for_key(key, shards)


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

        for done in [consumer.express_interest(n) for n in names]:
            env.run(until=done)
        assert node.metrics.snapshot() == {
            "packets_dispatched": len(names), "packets_dropped_no_face": 0,
        }
        assert received() == len(names)
        for done in [consumer.express_interest(n) for n in names]:
            env.run(until=done)
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
        for done in [consumer.express_interest(f"{tenant}/only") for tenant in TENANTS]:
            env.run(until=done)
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


class TestSynchronousBoundary:
    """The dispatcher and the shard boundary hand packets over by a direct
    call: sharding partitions state, it never adds simulated time or events."""

    MANY_TENANTS = [f"/u{i:03d}" for i in range(64)]

    @classmethod
    def run_workload(cls, node):
        attach_tenant_producers(node, cls.MANY_TENANTS)
        consumer = Consumer(node.env, node)
        completions = [
            consumer.express_interest(f"{tenant}/obj/{round_index}")
            for round_index in range(2) for tenant in cls.MANY_TENANTS
        ]
        # Drain by hand: every event the exchanges schedule is counted,
        # the lifetime timers that fall due after the Data included.
        events = 0
        while node.env.queue_size:
            node.env.step()
            events += 1
        assert all(c.triggered and c.ok for c in completions)
        return events

    def test_sharded_and_plain_forwarders_process_the_same_events(self):
        plain = Forwarder(Environment(), name="node")
        sharded = ShardedForwarder(Environment(), name="node", shards=2)
        assert self.run_workload(sharded) == self.run_workload(plain)
        assert sum(
            shard.metrics.counter("interests_received").value
            for shard in sharded.shards
        ) == 2 * len(self.MANY_TENANTS)

    def test_zero_service_time_runs_synchronously(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        attach_tenant_producers(node)
        consumer = Consumer(env, node)
        completion = consumer.express_interest("/t0/sync")
        env.run(until=completion)
        assert completion.ok
        assert env.now < 1e-9  # crossing the boundary spends no simulated time

    @staticmethod
    def run_scenario(node, scenario):
        """Drive one exchange pattern; return every completion's outcome
        and finish time, the events processed and the final clock."""
        env = node.env
        finished = []

        def record(completion):
            completion.callbacks.append(lambda event: finished.append(
                (event.ok, event.value.content if event.ok
                 else type(event.value).__name__, env.now)))
            return completion

        first = Consumer(env, node)
        if scenario == "cache_hit":
            node.attach_producer("/t0", lambda interest: Data(
                name=interest.name, content=b"fresh", freshness_period=10.0))
            record(first.express_interest("/t0/obj"))
            env.run()
            record(first.express_interest("/t0/obj"))
        elif scenario == "nack":
            record(first.express_interest("/nowhere/road"))
        elif scenario == "timeout":
            node.attach_producer("/t0", lambda interest: None)
            record(first.express_interest("/t0/silent", lifetime=0.5))
        elif scenario == "aggregation":
            def answer_later(interest):
                data = Data(name=interest.name, content=b"once")
                env.timeout(0.2).callbacks.append(lambda _: app_face.send(data))

            app_face = node.attach_producer("/t0", answer_later)
            second = Consumer(env, node)
            record(first.express_interest("/t0/shared"))
            record(second.express_interest("/t0/shared"))
        events = 0
        while env.queue_size:
            env.step()
            events += 1
        return finished, events, env.now

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize(
        "scenario", ["cache_hit", "nack", "timeout", "aggregation"])
    def test_every_exchange_pattern_matches_a_plain_forwarder(self, scenario, shards):
        plain = Forwarder(Environment(), name="node")
        sharded = ShardedForwarder(Environment(), name="node", shards=shards)
        outcome = self.run_scenario(sharded, scenario)
        assert outcome == self.run_scenario(plain, scenario)
        assert outcome[0]  # every pattern completes at least one exchange
        # PIT expiry is lazy on both: an expired entry lingers alike.
        assert sharded.pit_entries() == len(plain.pit)

    def test_sharded_runs_are_deterministic(self):
        node_a = ShardedForwarder(Environment(), name="node", shards=3)
        node_b = ShardedForwarder(Environment(), name="node", shards=3)
        assert self.run_workload(node_a) == self.run_workload(node_b)
        assert node_a.env.now == node_b.env.now
        assert shard_counters(node_a) == shard_counters(node_b)
