"""Tests for faces, strategies, the forwarder, consumer/producer and routing."""

import pytest

from repro.exceptions import InterestNacked, InterestTimeout, NDNError
from repro.ndn.client import Consumer, Producer, RetryPolicy
from repro.ndn.face import LocalFace, connect
from repro.ndn.fib import FibEntry, NextHop
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, Nack, NackReason
from repro.ndn.routing import RoutingDaemon
from repro.ndn.segmentation import reassemble, segment_content, segment_names
from repro.ndn.strategy import (
    BestRouteStrategy,
    LoadBalanceStrategy,
    MulticastStrategy,
    StrategyChoiceTable,
)
from repro.sim.rng import SeededRNG
from repro.sim.topology import Link


def make_fib_entry(*hops):
    entry = FibEntry(prefix=Name("/p"))
    for face_id, cost in hops:
        entry.add_nexthop(face_id, cost)
    return entry


class TestStrategies:
    def test_best_route_picks_lowest_cost(self):
        entry = make_fib_entry((1, 10), (2, 5), (3, 20))
        assert BestRouteStrategy().select(Interest(name=Name("/p/x")), entry, in_face_id=99) == [2]

    def test_best_route_excludes_incoming_face(self):
        entry = make_fib_entry((1, 5), (2, 10))
        assert BestRouteStrategy().select(Interest(name=Name("/p/x")), entry, in_face_id=1) == [2]

    def test_best_route_excludes_tried_faces(self):
        entry = make_fib_entry((1, 5), (2, 10))
        assert BestRouteStrategy().select(
            Interest(name=Name("/p/x")), entry, in_face_id=99, tried_faces=(1,)
        ) == [2]

    def test_best_route_empty_when_exhausted(self):
        entry = make_fib_entry((1, 5))
        assert BestRouteStrategy().select(
            Interest(name=Name("/p/x")), entry, in_face_id=99, tried_faces=(1,)
        ) == []

    def test_multicast_returns_all_eligible(self):
        entry = make_fib_entry((1, 1), (2, 2), (3, 3))
        selected = MulticastStrategy().select(Interest(name=Name("/p/x")), entry, in_face_id=2)
        assert sorted(selected) == [1, 3]

    def test_load_balance_round_robin_cycles(self):
        entry = make_fib_entry((1, 1), (2, 1), (3, 1))
        strategy = LoadBalanceStrategy()
        picks = [strategy.select(Interest(name=Name("/p/x")), entry, in_face_id=99)[0] for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_load_balance_weighted_prefers_cheap_hops(self):
        entry = make_fib_entry((1, 0.0), (2, 50.0))
        strategy = LoadBalanceStrategy(rng=SeededRNG(3), weighted=True)
        picks = [strategy.select(Interest(name=Name("/p/x")), entry, in_face_id=99)[0] for _ in range(200)]
        assert picks.count(1) > picks.count(2)

    def test_strategy_choice_table_longest_prefix_wins(self):
        table = StrategyChoiceTable()
        multicast = MulticastStrategy()
        load_balance = LoadBalanceStrategy()
        table.set_strategy("/ndn", multicast)
        table.set_strategy("/ndn/k8s/compute", load_balance)
        assert table.find("/ndn/k8s/compute/x") is load_balance
        assert table.find("/ndn/k8s/data") is multicast
        assert isinstance(table.find("/other"), BestRouteStrategy)

    def test_strategy_choice_unset(self):
        table = StrategyChoiceTable()
        table.set_strategy("/a", MulticastStrategy())
        table.unset_strategy("/a")
        assert table.find("/a/x") is table.default


class TestSegmentation:
    def test_segments_cover_content(self):
        content = bytes(range(256)) * 10
        segments = segment_content("/data/obj", content, segment_size=100)
        assert len(segments) == (len(content) + 99) // 100
        assert reassemble(segments) == content

    def test_empty_content_single_segment(self):
        segments = segment_content("/data/empty", b"", segment_size=100)
        assert len(segments) == 1
        assert reassemble(segments) == b""

    def test_final_block_id_on_every_segment(self):
        segments = segment_content("/d/o", b"x" * 250, segment_size=100)
        for segment in segments:
            assert segment.final_block_id.to_str() == "seg=2"

    def test_reassemble_out_of_order(self):
        segments = segment_content("/d/o", b"abcdefghij", segment_size=3)
        assert reassemble(list(reversed(segments))) == b"abcdefghij"

    def test_reassemble_missing_segment_raises(self):
        segments = segment_content("/d/o", b"abcdefghij", segment_size=3)
        with pytest.raises(NDNError):
            reassemble(segments[:-1])

    def test_reassemble_duplicate_raises(self):
        segments = segment_content("/d/o", b"abcdef", segment_size=3)
        with pytest.raises(NDNError):
            reassemble(segments + [segments[0]])

    def test_reassemble_empty_raises(self):
        with pytest.raises(NDNError):
            reassemble([])

    def test_invalid_segment_size(self):
        with pytest.raises(NDNError):
            segment_content("/d/o", b"x", segment_size=0)

    def test_segment_names_helper(self):
        names = segment_names("/d/o", total_size=250, segment_size=100)
        assert [str(n) for n in names] == ["/d/o/seg=0", "/d/o/seg=1", "/d/o/seg=2"]


@pytest.fixture
def linked_pair(env):
    """Two forwarders A—B with routing daemons peered over the link."""
    fa, fb = Forwarder(env, "A"), Forwarder(env, "B")
    face_ab, face_ba = connect(env, fa, fb, link=Link("A", "B", latency_s=0.01), label="A-B")
    da, db = RoutingDaemon(fa), RoutingDaemon(fb)
    RoutingDaemon.peer(da, face_ab, db, face_ba, link_cost=1.0)
    return fa, fb, da, db


class TestForwarderPipelines:
    def test_producer_consumer_exchange(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        producer = Producer(env, fb, "/ndn/k8s/data")
        producer.publish("/ndn/k8s/data/hello", b"world")
        db.announce("/ndn/k8s/data")
        consumer = Consumer(env, fa)
        data = env.run(until=consumer.express_interest("/ndn/k8s/data/hello"))
        assert data.content == b"world"
        assert env.now > 0.02  # two link traversals

    def test_content_store_serves_second_request(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        producer = Producer(env, fb, "/data")
        producer.publish("/data/x", b"payload")
        db.announce("/data")
        consumer = Consumer(env, fa)
        env.run(until=consumer.express_interest("/data/x"))
        before = fa.cs.hits
        env.run(until=consumer.express_interest("/data/x"))
        assert fa.cs.hits == before + 1
        assert producer.interests_served == 1  # producer saw only the first request

    def test_no_route_produces_nack(self, env, linked_pair):
        fa, _, _, _ = linked_pair
        consumer = Consumer(env, fa)
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/unknown/prefix", lifetime=1.0))

    def test_unanswered_interest_times_out(self, env):
        forwarder = Forwarder(env, "lonely")
        # Register a producer face that never answers.
        forwarder.attach_producer("/silent", lambda interest: None)
        consumer = Consumer(env, forwarder)
        with pytest.raises(InterestTimeout):
            env.run(until=consumer.express_interest("/silent/x", lifetime=0.5))
        assert env.now >= 0.5

    def test_retries_reexpress_interest(self, env):
        forwarder = Forwarder(env, "flaky")
        calls = {"count": 0}

        def handler(interest):
            calls["count"] += 1
            if calls["count"] < 2:
                return None  # drop the first request
            return Data(name=interest.name, content=b"second time").sign()

        forwarder.attach_producer("/svc", handler)
        consumer = Consumer(env, forwarder)
        exchange = consumer.express_interest(
            "/svc/x", lifetime=0.5, retry_policy=RetryPolicy(max_retries=2))
        data = env.run(until=exchange)
        assert data.content == b"second time"
        assert calls["count"] == 2

    def test_interest_aggregation_single_upstream_fetch(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        served = {"count": 0}

        def slow_handler(interest):
            served["count"] += 1
            return Data(name=interest.name, content=b"shared").sign()

        fb.attach_producer("/agg", slow_handler, delay_s=0.05)
        db.announce("/agg")
        consumer_one = Consumer(env, fa, "c1")
        consumer_two = Consumer(env, fa, "c2")
        ev1 = consumer_one.express_interest("/agg/item")
        ev2 = consumer_two.express_interest("/agg/item")
        env.run(until=env.all_of([ev1, ev2]))
        assert served["count"] == 1
        assert ev1.value.content == b"shared" and ev2.value.content == b"shared"

    def test_hop_limit_exhaustion_drops_interest(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        fb.attach_producer("/deep", lambda i: Data(name=i.name, content=b"d").sign())
        db.announce("/deep")
        consumer = Consumer(env, fa)
        interest = Interest(name=Name("/deep/x"), hop_limit=0, lifetime=0.3)
        with pytest.raises(InterestTimeout):
            env.run(until=consumer.express_interest(interest))

    def test_nack_retry_on_alternative_face(self, env):
        """When the best upstream NACKs, the forwarder retries the other route."""
        edge = Forwarder(env, "edge")
        bad, good = Forwarder(env, "bad"), Forwarder(env, "good")
        face_eb, _ = connect(env, edge, bad, link=Link("e", "b", latency_s=0.001), label="e-b")
        face_eg, _ = connect(env, edge, good, link=Link("e", "g", latency_s=0.001), label="e-g")
        edge.register_prefix("/svc", face_eb, cost=1)   # preferred but broken
        edge.register_prefix("/svc", face_eg, cost=10)  # fallback
        # 'bad' has no route, so it NACKs; 'good' serves the data.
        good.attach_producer("/svc", lambda i: Data(name=i.name, content=b"ok").sign())
        consumer = Consumer(env, edge)
        data = env.run(until=consumer.express_interest("/svc/task", lifetime=2.0))
        assert data.content == b"ok"
        assert edge.metrics.counter("nack_retries").value >= 1

    def test_remove_face_purges_fib(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        db.announce("/gone")
        face_id = fa.fib.lookup("/gone/x").best().face_id
        fa.remove_face(face_id)
        assert fa.fib.lookup("/gone/x") is None

    def test_forwarder_stats_shape(self, env, linked_pair):
        fa, _, _, _ = linked_pair
        stats = fa.stats()
        assert stats["name"] == "A"
        assert "cs" in stats and "fib_entries" in stats

    def test_duplicate_nonce_nacked(self, env):
        forwarder = Forwarder(env, "loop")
        forwarder.attach_producer("/svc", lambda i: None)
        consumer = Consumer(env, forwarder)
        interest = Interest(name=Name("/svc/x"), lifetime=5.0)
        consumer.face.send(interest)
        consumer.face.send(interest)  # identical nonce: loop suspicion
        env.run(until=1.0)
        assert consumer.nacks_received >= 1

    def test_unsolicited_data_dropped_by_default(self, env):
        forwarder = Forwarder(env, "strict")
        consumer = Consumer(env, forwarder)
        consumer.face.send(Data(name=Name("/nobody/asked"), content=b"x").sign())
        env.run()
        assert len(forwarder.cs) == 0

    def test_unsolicited_data_cached_when_enabled(self, env):
        forwarder = Forwarder(env, "repo", cache_unsolicited=True)
        consumer = Consumer(env, forwarder)
        consumer.face.send(Data(name=Name("/push/content"), content=b"x").sign())
        env.run()
        assert len(forwarder.cs) == 1


class TestProducerStore:
    def test_publish_and_stored_names(self, env):
        forwarder = Forwarder(env, "f")
        producer = Producer(env, forwarder, "/app")
        producer.publish("/app/one", b"1")
        producer.publish("/app/two", b"2")
        assert [str(n) for n in producer.stored_names()] == ["/app/one", "/app/two"]

    def test_publish_outside_prefix_rejected(self, env):
        producer = Producer(env, Forwarder(env, "f"), "/app")
        with pytest.raises(NDNError):
            producer.publish("/other/name", b"x")

    def test_publish_segments_large_content(self, env):
        producer = Producer(env, Forwarder(env, "f"), "/app")
        packets = producer.publish("/app/big", b"z" * 2500, segment_size=1000)
        assert len(packets) == 3

    def test_unpublish_removes_prefix(self, env):
        producer = Producer(env, Forwarder(env, "f"), "/app")
        producer.publish("/app/big", b"z" * 2500, segment_size=1000)
        assert producer.unpublish("/app/big") == 3
        assert producer.stored_names() == []

    def test_unknown_request_nacked(self, env):
        forwarder = Forwarder(env, "f")
        Producer(env, forwarder, "/app")
        consumer = Consumer(env, forwarder)
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/app/missing", lifetime=1.0))

    def test_fetch_segments_generator(self, env):
        forwarder = Forwarder(env, "f")
        producer = Producer(env, forwarder, "/app")
        payload = bytes(range(256)) * 50
        producer.publish("/app/blob", payload, segment_size=1024)
        consumer = Consumer(env, forwarder)

        def fetch():
            content = yield from consumer.fetch_segments("/app/blob")
            return content

        assert env.run_process(fetch()) == payload


class TestRoutingDaemon:
    def test_announcement_installs_route_on_neighbor(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        db.announce("/ndn/k8s/compute", cost=0)
        entry = fa.fib.lookup("/ndn/k8s/compute/task")
        assert entry is not None
        assert entry.best().cost == pytest.approx(1.0)  # link cost added

    def test_withdraw_removes_route(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        db.announce("/svc")
        db.withdraw("/svc")
        assert fa.fib.lookup("/svc/x") is None

    def test_multi_hop_propagation_accumulates_cost(self, env):
        forwarders = [Forwarder(env, name) for name in "abc"]
        daemons = [RoutingDaemon(f) for f in forwarders]
        face_ab, face_ba = connect(env, forwarders[0], forwarders[1], label="a-b")
        face_bc, face_cb = connect(env, forwarders[1], forwarders[2], label="b-c")
        RoutingDaemon.peer(daemons[0], face_ab, daemons[1], face_ba, link_cost=1)
        RoutingDaemon.peer(daemons[1], face_bc, daemons[2], face_cb, link_cost=2)
        daemons[2].announce("/far")
        assert forwarders[0].fib.lookup("/far/x").best().cost == pytest.approx(3.0)
        assert forwarders[1].fib.lookup("/far/x").best().cost == pytest.approx(2.0)

    def test_multiple_origins_yield_multiple_nexthops(self, env):
        hub = Forwarder(env, "hub")
        hub_daemon = RoutingDaemon(hub)
        spokes = []
        for name in ("s1", "s2"):
            spoke = Forwarder(env, name)
            daemon = RoutingDaemon(spoke)
            face_hub, face_spoke = connect(env, hub, spoke, label=f"hub-{name}")
            RoutingDaemon.peer(hub_daemon, face_hub, daemon, face_spoke, link_cost=1)
            daemon.announce("/ndn/k8s/compute")
            spokes.append(daemon)
        entry = hub.fib.lookup("/ndn/k8s/compute/x")
        assert len(entry.nexthops) == 2
        assert sorted(hub_daemon.origins_for("/ndn/k8s/compute")) == ["s1", "s2"]

    def test_new_adjacency_receives_existing_rib(self, env):
        fa, fb = Forwarder(env, "a"), Forwarder(env, "b")
        da, db = RoutingDaemon(fa), RoutingDaemon(fb)
        da.announce("/early")
        face_ab, face_ba = connect(env, fa, fb, label="a-b")
        RoutingDaemon.peer(da, face_ab, db, face_ba)
        assert fb.fib.lookup("/early/x") is not None

    def test_shutdown_withdraws_local_prefixes(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        db.announce("/one")
        db.announce("/two")
        db.shutdown()
        assert fa.fib.lookup("/one/x") is None
        assert fa.fib.lookup("/two/x") is None

    def test_known_prefixes_listing(self, env, linked_pair):
        _, _, da, db = linked_pair
        db.announce("/ndn/k8s/compute")
        da.announce("/ndn/k8s/data")
        assert Name("/ndn/k8s/compute") in da.known_prefixes()
        assert Name("/ndn/k8s/data") in db.known_prefixes()
