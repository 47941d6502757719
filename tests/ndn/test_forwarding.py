"""Tests for faces, strategies, the forwarder, consumer/producer and routing."""

import pytest

from repro.exceptions import InterestNacked, InterestTimeout, NDNError
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.face import LocalFace, connect
from repro.ndn.fib import FibEntry
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Component, Name
from repro.ndn.packet import Data, Interest, NackReason
from repro.ndn.routing import RoutingDaemon
from repro.ndn.segmentation import parse_segment, reassemble, segment_data
from repro.ndn.strategy import (
    BestRouteStrategy,
    LoadBalanceStrategy,
    OwnerAffinityStrategy,
    StrategyChoiceTable,
)
from repro.sim.topology import Link


def serve(forwarder, prefix, packets):
    """Attach a producer answering each name in ``packets`` with its Data
    and every other name with a NO_ROUTE Nack; returns the names it saw."""
    store = {packet.name: packet for packet in packets}
    seen = []

    def handler(interest):
        seen.append(interest.name)
        data = store.get(interest.name)
        return data if data is not None else interest.nack(NackReason.NO_ROUTE)

    forwarder.attach_producer(prefix, handler)
    return seen


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

    def test_load_balance_round_robin_cycles(self):
        entry = make_fib_entry((1, 1), (2, 1), (3, 1))
        strategy = LoadBalanceStrategy()
        picks = [strategy.select(Interest(name=Name("/p/x")), entry, in_face_id=99)[0] for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_load_balance_round_robin_skips_tried_faces(self):
        entry = make_fib_entry((1, 1), (2, 1), (3, 1))
        strategy = LoadBalanceStrategy()
        picks = [strategy.select(Interest(name=Name("/p/x")), entry, in_face_id=99,
                                 tried_faces=(2,))[0] for _ in range(4)]
        assert picks == [1, 3, 1, 3]

    def test_load_balance_never_returns_the_incoming_face(self):
        entry = make_fib_entry((1, 1), (2, 1))
        strategy = LoadBalanceStrategy()
        picks = {strategy.select(Interest(name=Name("/p/x")), entry, in_face_id=1)[0]
                 for _ in range(4)}
        assert picks == {2}

    def test_load_balance_skips_down_faces(self):
        entry = make_fib_entry((1, 1), (2, 1), (3, 1))
        strategy = LoadBalanceStrategy()
        picks = [strategy.select(Interest(name=Name("/p/x")), entry, in_face_id=99,
                                 down_faces=(1,))[0] for _ in range(4)]
        assert picks == [2, 3, 2, 3]

    def test_load_balance_empty_when_exhausted(self):
        entry = make_fib_entry((1, 1), (2, 1))
        assert LoadBalanceStrategy().select(
            Interest(name=Name("/p/x")), entry, in_face_id=1, tried_faces=(2,)
        ) == []

    def test_strategy_choice_table_longest_prefix_wins(self):
        table = StrategyChoiceTable()
        owner_affinity = OwnerAffinityStrategy()
        load_balance = LoadBalanceStrategy()
        table.set_strategy("/ndn", owner_affinity)
        table.set_strategy("/ndn/k8s/compute", load_balance)
        assert table.find("/ndn/k8s/compute/x") is load_balance
        assert table.find("/ndn/k8s/data") is owner_affinity
        assert isinstance(table.find("/other"), BestRouteStrategy)


class TestSegmentation:
    def test_segments_cover_content(self, segment_all):
        content = bytes(range(256)) * 10
        segments = segment_all("/data/obj", content, segment_size=100)
        assert len(segments) == (len(content) + 99) // 100
        assert reassemble(segments) == content

    def test_empty_content_single_segment(self, segment_all):
        segments = segment_all("/data/empty", b"", segment_size=100)
        assert len(segments) == 1
        assert reassemble(segments) == b""

    def test_final_block_id_on_every_segment(self, segment_all):
        segments = segment_all("/d/o", b"x" * 250, segment_size=100)
        for segment in segments:
            assert segment.final_block_id.to_str() == "seg=2"

    def test_reassemble_out_of_order(self, segment_all):
        segments = segment_all("/d/o", b"abcdefghij", segment_size=3)
        assert reassemble(list(reversed(segments))) == b"abcdefghij"

    def test_reassemble_missing_segment_raises(self, segment_all):
        segments = segment_all("/d/o", b"abcdefghij", segment_size=3)
        with pytest.raises(NDNError):
            reassemble(segments[:-1])

    def test_reassemble_duplicate_raises(self, segment_all):
        segments = segment_all("/d/o", b"abcdef", segment_size=3)
        with pytest.raises(NDNError):
            reassemble(segments + [segments[0]])

    def test_reassemble_empty_raises(self):
        with pytest.raises(NDNError):
            reassemble([])

    def test_invalid_segment_size(self):
        with pytest.raises(NDNError):
            segment_data("/d/o", b"x", 0, segment_size=0)

    def test_segment_names(self, segment_all):
        packets = segment_all("/d/o", b"x" * 250, segment_size=100)
        assert [str(p.name) for p in packets] == ["/d/o/seg=0", "/d/o/seg=1", "/d/o/seg=2"]

    @pytest.mark.parametrize("label, index", [("seg=0", 0), ("seg=7", 7), ("seg=120", 120)])
    def test_parse_segment(self, label, index):
        assert parse_segment(label) == index

    @pytest.mark.parametrize("label", [
        "seg=", "seg=x", "seg=-1", "seg=+1", "seg= 1", "seg=01", "seg=1.0", "seg=\u0663", "s=1", "1",
    ])
    def test_parse_segment_rejects_malformed_labels(self, label):
        with pytest.raises(NDNError):
            parse_segment(label)

    def test_reassemble_rejects_a_malformed_final_block_id(self):
        segment = Data(name=Name("/d/o/seg=0"), content=b"x",
                       final_block_id=Component("seg=x"))
        with pytest.raises(NDNError):
            reassemble([segment])

    def test_fetch_segments_rejects_a_malformed_final_block_id(self, env):
        forwarder = Forwarder(env, "origin")
        forwarder.attach_producer("/d", lambda interest: Data(
            name=interest.name, content=b"x", final_block_id=Component("seg=x")))
        consumer = Consumer(env, forwarder)
        with pytest.raises(NDNError):
            env.run_process(consumer.fetch_segments("/d/o"))


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
        serve(fb, "/ndn/k8s/data", [Data(name=Name("/ndn/k8s/data/hello"), content=b"world")])
        db.announce("/ndn/k8s/data")
        consumer = Consumer(env, fa)
        data = env.run(until=consumer.express_interest("/ndn/k8s/data/hello"))
        assert data.content == b"world"
        assert env.now > 0.02  # two link traversals

    def test_content_store_serves_second_request(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        seen = serve(fb, "/data", [Data(name=Name("/data/x"), content=b"payload")])
        db.announce("/data")
        consumer = Consumer(env, fa)
        env.run(until=consumer.express_interest("/data/x"))
        before = fa.cs.hits
        env.run(until=consumer.express_interest("/data/x"))
        assert fa.cs.hits == before + 1
        assert seen == [Name("/data/x")]  # the producer saw only the first request

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
            return Data(name=interest.name, content=b"second time")

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

        def slow_handler(interest):  # answers 0.1 s later through its app face
            served["count"] += 1
            data = Data(name=interest.name, content=b"shared")
            env.timeout(0.1).callbacks.append(lambda _: app_face.send(data))

        app_face = fb.attach_producer("/agg", slow_handler)
        db.announce("/agg")
        consumer_one = Consumer(env, fa, "c1")
        consumer_two = Consumer(env, fa, "c2")
        ev1 = consumer_one.express_interest("/agg/item")
        ev2 = consumer_two.express_interest("/agg/item")
        env.run(until=ev1)
        env.run(until=ev2)
        assert served["count"] == 1
        assert ev1.value.content == b"shared" and ev2.value.content == b"shared"

    def test_hop_limit_exhaustion_drops_interest(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        fb.attach_producer("/deep", lambda i: Data(name=i.name, content=b"d"))
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
        good.attach_producer("/svc", lambda i: Data(name=i.name, content=b"ok"))
        consumer = Consumer(env, edge)
        data = env.run(until=consumer.express_interest("/svc/task", lifetime=2.0))
        assert data.content == b"ok"
        assert edge.metrics.counter("nack_retries").value >= 1

    def test_a_satisfied_can_be_prefix_exchange_leaves_its_name_routable(self, env):
        """``/a`` answered by ``/a/b`` must not leave the producer marked as
        tried for ``/a``: the next CanBePrefix Interest for ``/a`` reaches it
        again (no Content Store at capacity 0 to hide the defect)."""
        edge = Forwarder(env, "edge", cs_capacity=0)
        edge.attach_producer("/a", lambda i: Data(name=Name("/a/b"), content=b"b"))
        consumer = Consumer(env, edge)
        for _ in range(2):
            data = env.run(until=consumer.express_interest(
                "/a", can_be_prefix=True, lifetime=1.0))
            assert data.name == Name("/a/b")
        assert edge.metrics.counter("interests_nacked").value == 0
        assert len(edge.pit) == 0

    def test_each_upstream_is_tried_once_before_the_downstream_is_nacked(self, env):
        """The PIT entry's out-records are the upstreams already tried: every
        next hop is asked exactly once, then the consumer gets ``NoRoute``."""
        edge = Forwarder(env, "edge")
        upstreams = [Forwarder(env, f"up{index}") for index in range(3)]
        for index, upstream in enumerate(upstreams):
            face, _ = connect(env, edge, upstream,
                              link=Link("e", f"u{index}", latency_s=0.001), label=f"e-u{index}")
            edge.register_prefix("/svc", face, cost=index + 1)  # none of them routes on
        consumer = Consumer(env, edge)
        with pytest.raises(InterestNacked, match="NoRoute"):
            env.run(until=consumer.express_interest("/svc/task", lifetime=2.0))
        asked = [up.metrics.counter("interests_received").value for up in upstreams]
        assert asked == [1, 1, 1]
        assert edge.metrics.counter("nack_retries").value == 2
        assert len(edge.pit) == 0

    def test_the_face_an_interest_arrived_on_is_never_its_upstream(self, env):
        """A PIT in-record is never chosen as an upstream: two neighbours
        whose only routes point at each other Nack instead of ping-ponging."""
        fa, fb = Forwarder(env, "A"), Forwarder(env, "B")
        face_ab, face_ba = connect(env, fa, fb, link=Link("A", "B", latency_s=0.001), label="A-B")
        fa.register_prefix("/loop", face_ab)
        fb.register_prefix("/loop", face_ba)
        consumer = Consumer(env, fa)
        with pytest.raises(InterestNacked, match="NoRoute"):
            env.run(until=consumer.express_interest("/loop/x", lifetime=2.0))
        assert fa.metrics.counter("interests_received").value == 1
        assert fb.metrics.counter("interests_received").value == 1
        assert fb.metrics.counter("interests_forwarded").value == 0

    def test_remove_face_purges_fib(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        db.announce("/gone")
        face_id = fa.fib.lookup("/gone/x").nexthops[0].face_id
        fa.remove_face(face_id)
        assert fa.fib.lookup("/gone/x") is None

    def test_forwarder_stats_shape(self, env, linked_pair):
        """The state a forwarder report used to summarise is read in place."""
        fa, _, _, _ = linked_pair
        assert fa.name == "A"
        assert list(fa.faces()) == [1]
        assert (len(fa.fib), len(fa.pit), len(fa.cs)) == (0, 0, 0)
        assert fa.metrics.snapshot() == {}

    def test_registry_counts_each_pipeline_step(self, env):
        edge, origin = Forwarder(env, "edge"), Forwarder(env, "origin")
        face, _ = connect(env, edge, origin, link=Link("e", "o", latency_s=0.01), label="e-o")
        edge.register_prefix("/svc", face)
        origin.attach_producer("/svc", lambda i: Data(name=i.name, content=b"ok"))
        consumer = Consumer(env, edge)
        env.run(until=consumer.express_interest("/svc/x"))
        one_exchange = {"interests_received": 1, "interests_forwarded": 1,
                        "data_received": 1, "data_forwarded": 1}
        assert edge.metrics.snapshot() == one_exchange
        assert origin.metrics.snapshot() == one_exchange
        env.run(until=consumer.express_interest("/svc/x"))
        assert edge.metrics.snapshot() == {**one_exchange, "interests_received": 2, "cs_hits": 1}
        assert origin.metrics.snapshot() == one_exchange

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
        consumer.face.send(Data(name=Name("/nobody/asked"), content=b"x"))
        env.run()
        assert len(forwarder.cs) == 0

    def test_unsolicited_data_cached_when_enabled(self, env):
        forwarder = Forwarder(env, "repo", cache_unsolicited=True)
        consumer = Consumer(env, forwarder)
        consumer.face.send(Data(name=Name("/push/content"), content=b"x"))
        env.run()
        assert len(forwarder.cs) == 1


class TestProducerHandlers:
    def test_unknown_request_nacked(self, env):
        forwarder = Forwarder(env, "f")
        seen = serve(forwarder, "/app", [Data(name=Name("/app/one"), content=b"1")])
        consumer = Consumer(env, forwarder)
        with pytest.raises(InterestNacked) as nacked:
            env.run(until=consumer.express_interest("/app/missing", lifetime=1.0))
        assert nacked.value.reason == NackReason.label(NackReason.NO_ROUTE)
        assert seen == [Name("/app/missing")]

    def test_handler_answers_later_through_its_face(self, env):
        """A handler returning ``None`` answers later through the face
        ``attach_producer`` returned."""
        forwarder = Forwarder(env, "f")
        asked = []
        face = forwarder.attach_producer("/slow", asked.append)
        consumer = Consumer(env, forwarder)
        request = consumer.express_interest("/slow/item", lifetime=4.0)
        env.run(until=1.0)
        assert [str(interest.name) for interest in asked] == ["/slow/item"]
        assert not request.triggered
        face.send(Data(name=Name("/slow/item"), content=b"late"))
        assert env.run(until=request).content == b"late"
        assert env.now == pytest.approx(1.0)


class TestSegmentFetch:
    @staticmethod
    def fetch(env, consumer, name):
        def fetch():
            content = yield from consumer.fetch_segments(name)
            return content

        return env.run_process(fetch())

    def test_fetch_segments_generator(self, env, segment_all):
        forwarder = Forwarder(env, "f")
        payload = bytes(range(256)) * 50
        serve(forwarder, "/app", segment_all(Name("/app/blob"), payload, segment_size=1024))
        consumer = Consumer(env, forwarder)
        assert self.fetch(env, consumer, "/app/blob") == payload

    def test_unsegmented_first_packet_is_the_whole_object(self, env):
        """A ``seg=0`` Data without a final block id ends the fetch."""
        forwarder = Forwarder(env, "f")
        seen = serve(forwarder, "/app", [Data(name=Name("/app/note/seg=0"), content=b"all")])
        consumer = Consumer(env, forwarder)
        assert self.fetch(env, consumer, "/app/note") == b"all"
        assert seen == [Name("/app/note/seg=0")]

    def test_missing_segment_fails_the_fetch(self, env, segment_all):
        forwarder = Forwarder(env, "f")
        segments = segment_all(Name("/app/blob"), b"z" * 2500, segment_size=1000)
        serve(forwarder, "/app", [segments[0], segments[2]])
        consumer = Consumer(env, forwarder)
        with pytest.raises(InterestNacked) as nacked:
            self.fetch(env, consumer, "/app/blob")
        assert str(nacked.value.name) == "/app/blob/seg=1"


class TestRoutingDaemon:
    def test_announcement_installs_route_on_neighbor(self, env, linked_pair):
        fa, fb, da, db = linked_pair
        db.announce("/ndn/k8s/compute", cost=0)
        entry = fa.fib.lookup("/ndn/k8s/compute/task")
        assert entry is not None
        assert entry.nexthops[0].cost == pytest.approx(1.0)  # link cost added

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
        assert forwarders[0].fib.lookup("/far/x").nexthops[0].cost == pytest.approx(3.0)
        assert forwarders[1].fib.lookup("/far/x").nexthops[0].cost == pytest.approx(2.0)

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

    def test_each_daemon_learns_its_peers_announcements(self, env, linked_pair):
        _, _, da, db = linked_pair
        db.announce("/ndn/k8s/compute")
        da.announce("/ndn/k8s/data")
        assert da.origins_for("/ndn/k8s/compute") == db.origins_for("/ndn/k8s/compute") != []
        assert db.origins_for("/ndn/k8s/data") == da.origins_for("/ndn/k8s/data") != []
