"""Live shard rebalance: resize under traffic, weight changes, crash recovery.

The acceptance bar for ``ShardedForwarder.resize``: growing or shrinking a
node under streaming traffic loses zero acknowledged frames (every request
either completes with Data or fails with a typed Nack that a retry policy
turns into a completed exchange), the boundary byte ledgers stay exact, and
routes/producers/cached state follow their keys to the new owners.
"""

import pytest

from repro.exceptions import NDNError
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.packet import Data
from repro.ndn.shard import RebalanceReport, ShardedForwarder, rendezvous_for_name
from repro.sim.rng import SeededRNG

TENANTS = [f"/t{i}" for i in range(8)]


def attach_tenant_producers(node, tenants=TENANTS, delay_s=0.0):
    for tenant in tenants:
        def handler(interest, _tenant=tenant):
            return Data(name=interest.name, content=b"from:" + _tenant.encode()).sign()
        node.attach_producer(tenant, handler, delay_s=delay_s)


def assert_ledgers_exact(node):
    """Every surviving boundary pair's byte counters must mirror exactly."""
    for key, stats in node.boundary_stats().items():
        assert stats["dispatcher"]["bytes_out"] == stats["shard"]["bytes_in"], key
        assert stats["shard"]["bytes_out"] == stats["dispatcher"]["bytes_in"], key


class TestResizeBasics:
    def test_same_count_resize_is_a_no_op(self, env):
        node = ShardedForwarder(env, name="node", shards=3)
        attach_tenant_producers(node)
        report = node.resize(3)
        assert isinstance(report, RebalanceReport)
        assert report.old_shards == 3 and report.new_shards == 3
        assert report.routes_added == 0 and report.routes_removed == 0
        assert report.producers_added == 0 and report.producers_removed == 0
        assert node.rebalances == [report]

    def test_resize_rejects_zero_shards(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        with pytest.raises(NDNError):
            node.resize(0)

    def test_grow_rehomes_only_onto_the_new_shard(self, env):
        """HRW consistency: keys either stay put or land on the new shard."""
        node = ShardedForwarder(env, name="node", shards=3)
        attach_tenant_producers(node)
        report = node.resize(4)
        assert report.new_shards == 4 and len(node.shards) == 4
        for tenant in TENANTS:
            old_owner = rendezvous_for_name(tenant, 3)
            new_owner = rendezvous_for_name(tenant, 4)
            assert new_owner == old_owner or new_owner == 3
        # Producer moves happened make-before-break: every moved producer
        # was added on the new shard and removed from its old one.
        assert report.producers_added == report.producers_removed

    def test_grow_serves_every_tenant_afterwards(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        attach_tenant_producers(node)
        node.resize(5)
        consumer = Consumer(env, node)
        completions = [
            consumer.express_interest(f"{tenant}/obj") for tenant in TENANTS
        ]
        env.run()
        assert all(c.ok for c in completions)
        for tenant, completion in zip(TENANTS, completions):
            assert completion.value.content == b"from:" + tenant.encode()
        assert node.pit_entries() == 0
        assert_ledgers_exact(node)

    def test_shrink_serves_every_tenant_afterwards(self, env):
        node = ShardedForwarder(env, name="node", shards=5)
        attach_tenant_producers(node)
        report = node.resize(2)
        assert len(node.shards) == 2 and node.num_shards == 2
        consumer = Consumer(env, node)
        completions = [
            consumer.express_interest(f"{tenant}/obj") for tenant in TENANTS
        ]
        env.run()
        assert all(c.ok for c in completions)
        assert node.pit_entries() == 0
        assert report.new_shards == 2

    def test_cs_budget_is_resplit_across_the_new_count(self, env):
        node = ShardedForwarder(env, name="node", shards=2, cs_capacity=90)
        node.resize(3)
        capacities = [shard.cs.capacity for shard in node.shards]
        assert sum(capacities) == 90
        assert max(capacities) - min(capacities) <= 1

    def test_new_shards_inherit_strategy_choices(self, env):
        from repro.ndn.strategy import MulticastStrategy
        node = ShardedForwarder(env, name="node", shards=2)
        strategy = MulticastStrategy()
        node.set_strategy("/svc", strategy)
        node.resize(4)
        for shard in node.shards:
            assert shard.strategies.find("/svc/x") is strategy


class TestResizeUnderTraffic:
    def test_streaming_resize_loses_zero_acknowledged_frames(self, env):
        """The tentpole invariant: N -> N+1 under load, nothing acknowledged lost."""
        node = ShardedForwarder(env, name="node", shards=2, shard_service_s=0.001)
        attach_tenant_producers(node, delay_s=0.02)
        consumer = Consumer(env, node, rng=SeededRNG(5))
        policy = RetryPolicy(max_retries=5, retry_nacks=True)
        completions = []

        def traffic():
            for round_index in range(10):
                for tenant in TENANTS:
                    completions.append(consumer.express_interest(
                        f"{tenant}/obj/{round_index}", lifetime=10.0,
                        retry_policy=policy))
                yield env.timeout(0.01)

        def rebalance():
            yield env.timeout(0.035)  # mid-stream, with Interests in flight
            node.resize(3)

        env.process(traffic(), name="traffic")
        env.process(rebalance(), name="rebalance")
        env.run()
        assert len(completions) == 80
        assert all(c.triggered for c in completions)
        # Zero acknowledged-frame loss: every exchange completed with Data
        # (moved keys were Nacked and the retry policy re-routed them).
        assert all(c.ok for c in completions)
        assert consumer.pending_count() == 0
        assert node.pit_entries() == 0
        assert_ledgers_exact(node)
        assert len(node.rebalances) == 1

    def test_moved_pending_interests_are_nacked_not_stranded(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        attach_tenant_producers(node, delay_s=5.0)  # slow: requests pend
        consumer = Consumer(env, node)
        completions = [
            consumer.express_interest(f"{tenant}/slow", lifetime=30.0)
            for tenant in TENANTS
        ]
        env.run(until=0.1)
        assert node.pit_entries() == len(TENANTS)
        report = node.resize(4)
        moved = [
            tenant for tenant in TENANTS
            if rendezvous_for_name(tenant, 4) != rendezvous_for_name(tenant, 2)
        ]
        assert report.pending_aborted == len(moved)
        env.run(until=0.2)
        # Moved exchanges failed fast with a typed Nack; unmoved ones still pend.
        nacked = [c for c in completions if c.triggered and not c.ok]
        assert len(nacked) == len(moved)
        assert node.pit_entries() == len(TENANTS) - len(moved)
        env.run()  # let the slow producers answer the survivors

    @pytest.mark.parametrize("before, after", [(2, 4), (4, 1), (3, 3)])
    def test_resize_scans_each_shard_for_stranded_interests_once(
        self, env, monkeypatch, before, after
    ):
        """One resize, one abort_pending pass per shard (old, new and
        removed alike): a second pass could only re-scan cleaned tables."""
        from collections import Counter

        from repro.ndn.forwarder import Forwarder

        calls = Counter()
        original = Forwarder.abort_pending

        def counting(shard, *args, **kwargs):
            calls[shard.name] += 1
            return original(shard, *args, **kwargs)

        monkeypatch.setattr(Forwarder, "abort_pending", counting)
        node = ShardedForwarder(env, name="node", shards=before)
        attach_tenant_producers(node, delay_s=5.0)
        consumer = Consumer(env, node)
        for tenant in TENANTS:
            consumer.express_interest(f"{tenant}/slow", lifetime=30.0)
        env.run(until=0.1)
        node.resize(after)
        assert calls == {
            f"node/shard{index}": 1 for index in range(max(before, after))
        }
        env.run()

    def test_shrink_aborts_everything_on_removed_shards(self, env):
        node = ShardedForwarder(env, name="node", shards=4)
        attach_tenant_producers(node, delay_s=5.0)
        consumer = Consumer(env, node)
        for tenant in TENANTS:
            consumer.express_interest(f"{tenant}/slow", lifetime=30.0)
        env.run(until=0.1)
        report = node.resize(1)
        # Every key now owns shard 0; entries elsewhere were aborted, and
        # shard 0 keeps only the keys it already owned.
        kept = [t for t in TENANTS if rendezvous_for_name(t, 4) == 0]
        assert node.pit_entries() == len(kept)
        assert report.pending_aborted == len(TENANTS) - len(kept)
        env.run()
        assert node.pit_entries() == 0


class TestWeightedRebalance:
    def test_set_shard_weights_shifts_placement(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        attach_tenant_producers(node)
        report = node.set_shard_weights([1.0, 50.0])
        assert report.old_shards == 2 and report.new_shards == 2
        consumer = Consumer(env, node)
        completions = [
            consumer.express_interest(f"{tenant}/obj") for tenant in TENANTS
        ]
        env.run()
        assert all(c.ok for c in completions)
        # The heavy shard now owns (almost) every tenant key.
        heavy = node.shards[1].metrics.counter("interests_received").value
        light = node.shards[0].metrics.counter("interests_received").value
        assert heavy > light


class TestShardCrash:
    def test_crash_aborts_pending_and_restarts_cold(self, env):
        node = ShardedForwarder(env, name="node", shards=3, cs_capacity=64)
        attach_tenant_producers(node, delay_s=5.0)
        consumer = Consumer(env, node)
        for tenant in TENANTS:
            consumer.express_interest(f"{tenant}/x", lifetime=30.0)
        env.run(until=0.1)
        victim = rendezvous_for_name(TENANTS[0], 3)
        on_victim = [t for t in TENANTS if rendezvous_for_name(t, 3) == victim]
        aborted = node.crash_shard(victim)
        assert aborted == len(on_victim)
        assert len(node.shards[victim].pit) == 0
        assert len(node.shards[victim].cs) == 0
        env.run()
        # The crashed shard serves fresh traffic immediately (routes intact).
        fresh = Consumer(env, node, "fresh")
        # Lifetime clears the 10s producer round trip (5s each way).
        completion = fresh.express_interest(f"{TENANTS[0]}/after", lifetime=15.0)
        env.run()
        assert completion.ok

    def test_crash_rejects_bad_index(self, env):
        node = ShardedForwarder(env, name="node", shards=2)
        with pytest.raises(NDNError):
            node.crash_shard(2)
