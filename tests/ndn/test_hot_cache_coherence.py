"""Property and coherence tests for the dispatcher hot cache.

The contract (see :mod:`repro.ndn.shard` and
:class:`repro.ndn.strategy.DispatcherHotCache`): the fast path may serve a
cached frame **only** while the owning shard's Content Store still vouches
for it — never after producer re-install under a covering prefix, never
beyond the Data's freshness window, and never after the owning shard CS
evicted/erased the name.  Serving is bytes-only: zero wire decodes, and a
consumer decoding a served view never contaminates the cached template.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ndn.face import Face, LocalFace, connect
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, WirePacket, encode_name_value
from repro.ndn.shard import ShardedForwarder
from repro.ndn.strategy import DispatcherHotCache
from repro.sim.engine import Environment

components = st.binary(min_size=1, max_size=8)
names = st.lists(components, min_size=1, max_size=4).map(Name)


class _Driver:
    accepts_wire_packets = True

    def __init__(self) -> None:
        self.received: list[WirePacket] = []

    def add_face(self, face: Face) -> int:
        return 0

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        self.received.append(packet)


def _rig(env, shards=2, cs_capacity=64, hot_cache=8, freshness=3600.0):
    """A sharded node + driver face with one fresh producer under /p."""
    node = ShardedForwarder(
        env, name="coherence", shards=shards,
        cs_capacity=cs_capacity, hot_cache=hot_cache,
    )

    def handler(interest, _freshness=freshness):
        return Data(
            name=interest.name, content=b"v1", freshness_period=_freshness
        ).sign()

    node.attach_producer("/p", handler)
    driver = _Driver()
    driver_face, _ = connect(env, driver, node, face_cls=LocalFace)
    return node, driver, driver_face


def _exchange(env, driver, face, name, must_be_fresh=False) -> WirePacket:
    driver.received.clear()
    face.send(
        WirePacket(
            Interest(name=Name(name), hop_limit=16, must_be_fresh=must_be_fresh).encode()
        )
    )
    env.run()
    assert len(driver.received) == 1, f"no (or duplicate) answer for {name}"
    return driver.received[0]


class TestFastPathServing:
    def test_repeat_interest_is_served_by_the_dispatcher_with_zero_decodes(self):
        env = Environment()
        node, driver, face = _rig(env)
        _exchange(env, driver, face, "/p/obj")
        shard_interests_before = sum(
            shard.metrics.counter("interests_received").value for shard in node.shards
        )
        decodes_before = WirePacket.wire_decodes
        for _ in range(5):
            reply = _exchange(env, driver, face, "/p/obj")
            assert reply.is_data and reply.name == Name("/p/obj")
        assert node.hot_cache.hits == 5
        # The shards never saw the repeats, and nothing was decoded.
        assert sum(
            shard.metrics.counter("interests_received").value for shard in node.shards
        ) == shard_interests_before
        assert WirePacket.wire_decodes == decodes_before

    def test_consumer_decode_does_not_contaminate_the_cached_template(self):
        """Each hot serve hands out a detached clone: decoding one delivered
        view must not make later serves carry a decoded object (which would
        silently skew endpoint decode accounting)."""
        env = Environment()
        node, driver, face = _rig(env)
        _exchange(env, driver, face, "/p/obj")
        first = _exchange(env, driver, face, "/p/obj")
        first.decode()
        second = _exchange(env, driver, face, "/p/obj")
        assert first is not second
        assert not second.is_decoded
        assert node.hot_cache.hits == 2

    def test_must_be_fresh_interests_are_served_only_fresh_entries(self):
        env = Environment()
        node, driver, face = _rig(env, freshness=1.0)
        _exchange(env, driver, face, "/p/obj")
        assert _exchange(env, driver, face, "/p/obj", must_be_fresh=True).is_data
        assert node.hot_cache.hits == 1

    def test_disabled_hot_cache_changes_nothing(self):
        env = Environment()
        node, driver, face = _rig(env, hot_cache=0)
        assert node.hot_cache is None
        for _ in range(3):
            assert _exchange(env, driver, face, "/p/obj").is_data

    def test_cs_capacity_zero_admits_nothing(self):
        """A node with caching disabled must not start caching at the
        dispatcher: admission requires shard-CS residency."""
        env = Environment()
        node, driver, face = _rig(env, cs_capacity=0)
        for _ in range(3):
            _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 0
        assert node.hot_cache.insertions == 0


class TestCoherence:
    def test_never_served_after_producer_reinstall(self):
        env = Environment()
        node, driver, face = _rig(env)
        _exchange(env, driver, face, "/p/obj")
        _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 1
        key = encode_name_value(Name("/p/obj"))
        assert key in node.hot_cache
        # Re-install a producer under a covering prefix: the cached frame
        # must be dropped before the new handler can be asked anything.
        node.attach_producer("/p", lambda interest: Data(
            name=interest.name, content=b"v2", freshness_period=3600.0
        ).sign())
        assert key not in node.hot_cache
        _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 1  # served by a shard, not the cache
        assert node.hot_cache.invalidations >= 1

    @given(freshness=st.floats(0.05, 50.0), advance=st.floats(0.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_never_served_beyond_the_freshness_window(self, freshness, advance):
        env = Environment()
        node, driver, face = _rig(env, freshness=freshness)
        _exchange(env, driver, face, "/p/obj")  # arrival at t=0
        env.run(until=advance)
        reply = _exchange(env, driver, face, "/p/obj")
        assert reply.is_data
        # The authoritative freshness window is the *wire* one: the period
        # rides the Data TLV in integer milliseconds, so the dispatcher sees
        # the quantised value, not the producer's Python float.
        wire_freshness = round(freshness * 1000) / 1000.0
        if advance > wire_freshness:
            assert node.hot_cache.hits == 0, (
                f"stale frame served {advance - wire_freshness:.4f}s past expiry"
            )
            assert node.hot_cache.expirations == 1
        else:
            assert node.hot_cache.hits == 1

    @given(capacity=st.integers(1, 4), churn=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_never_served_after_owning_shard_cs_eviction(self, capacity, churn):
        """Fill a 1-shard node's CS past capacity; whether the hot cache may
        serve the first name afterwards is exactly CS residency."""
        env = Environment()
        node, driver, face = _rig(env, shards=1, cs_capacity=capacity)
        _exchange(env, driver, face, "/p/target")
        for i in range(churn):
            _exchange(env, driver, face, f"/p/churn{i}")
        # Residency must be read *before* the probe: answering the probe via
        # the shard re-inserts the name into the CS as a side effect.
        resident_before = Name("/p/target") in node.shards[0].cs._entries
        hits_before = node.hot_cache.hits
        reply = _exchange(env, driver, face, "/p/target")
        assert reply.is_data
        hot_served = node.hot_cache.hits > hits_before
        assert hot_served == resident_before, (
            "hot cache and owning shard CS disagree about /p/target"
        )

    def test_stale_cs_reserve_does_not_restart_the_freshness_window(self):
        """The shard CS may re-serve stale Data to a non-MustBeFresh
        Interest; mirroring that egress must age from the *CS arrival
        time*, or the fast path would serve (even MustBeFresh) Interests
        Data the CS itself considers stale."""
        env = Environment()
        node, driver, face = _rig(env, shards=1, freshness=1.0)
        _exchange(env, driver, face, "/p/obj")  # t=0: CS + hot cache admit
        env.run(until=5.0)
        # Stale CS re-serve (allowed for non-MustBeFresh) re-mirrors on
        # egress — anchored at the CS arrival (t=0), so still stale.
        _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 0
        _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 0, (
            "stale re-serve restarted the hot-cache freshness window"
        )

    def test_exhausted_hop_limit_is_neither_served_nor_counted_as_a_hit(self):
        env = Environment()
        node, driver, face = _rig(env)
        _exchange(env, driver, face, "/p/obj")
        driver.received.clear()
        face.send(WirePacket(Interest(name=Name("/p/obj"), hop_limit=0).encode()))
        env.run()
        assert driver.received == []  # dropped by the owning shard
        assert node.hot_cache.hits == 0
        assert node.hot_cache.misses >= 1

    def test_never_served_after_cs_erase(self):
        env = Environment()
        node, driver, face = _rig(env, shards=1)
        _exchange(env, driver, face, "/p/obj")
        assert encode_name_value(Name("/p/obj")) in node.hot_cache
        node.shards[0].cs.erase("/p")
        assert encode_name_value(Name("/p/obj")) not in node.hot_cache
        _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 0

    def test_never_served_after_cs_clear(self):
        env = Environment()
        node, driver, face = _rig(env, shards=1)
        _exchange(env, driver, face, "/p/obj")
        node.shards[0].cs.clear()
        assert encode_name_value(Name("/p/obj")) not in node.hot_cache
        _exchange(env, driver, face, "/p/obj")
        assert node.hot_cache.hits == 0


class TestDispatcherHotCacheUnit:
    def test_capacity_is_a_hard_lru_bound(self):
        cache = DispatcherHotCache(capacity=2)
        template = WirePacket(Data(name=Name("/d"), freshness_period=5.0).sign().encode())
        cache.insert(b"a", template, 0.0)
        cache.insert(b"b", template, 0.0)
        assert cache.get(b"a", 0.0) is not None  # refresh recency of a
        cache.insert(b"c", template, 0.0)  # evicts b (LRU)
        assert len(cache) == 2
        assert b"b" not in cache and b"a" in cache and b"c" in cache
        assert cache.evictions == 1

    def test_deferred_validation_drops_zero_freshness_on_first_lookup(self):
        """The egress path admits without reading the freshness TLV; the
        first lookup validates it and a zero-freshness frame is dropped
        unserved."""
        cache = DispatcherHotCache(capacity=2)
        template = WirePacket(Data(name=Name("/d")).sign().encode())
        cache.insert(b"a", template, 0.0)
        assert len(cache) == 1
        assert cache.get(b"a", 0.0) is None
        assert len(cache) == 0
        assert cache.expirations == 1 and cache.hits == 0

    def test_deferred_validation_serves_fresh_frames(self):
        cache = DispatcherHotCache(capacity=2)
        template = WirePacket(
            Data(name=Name("/d"), freshness_period=2.0).sign().encode()
        )
        cache.insert(b"a", template, 0.0)
        assert cache.get(b"a", 1.5) is template
        assert cache.get(b"a", 2.5) is None  # past the window read lazily

    def test_invalid_capacity_rejected(self):
        from repro.exceptions import NDNError

        with pytest.raises(NDNError):
            DispatcherHotCache(capacity=0)

    @given(prefix=names, extensions=st.lists(components, min_size=1, max_size=3),
           others=st.lists(names, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_invalidate_under_drops_exactly_the_covered_entries(
        self, prefix, extensions, others
    ):
        """Byte-prefix invalidation agrees with Name.is_prefix_of — the
        property that makes producer-install invalidation correct."""
        cache = DispatcherHotCache(capacity=64)
        template = WirePacket(Data(name=Name("/d"), freshness_period=5.0).sign().encode())
        population = [prefix.append(*extensions), *others, prefix]
        for name in population:
            cache.insert(encode_name_value(name), template, 0.0)
        cache.invalidate_under(prefix)
        for name in population:
            expected_gone = prefix.is_prefix_of(name)
            assert (encode_name_value(name) not in cache) == expected_gone
