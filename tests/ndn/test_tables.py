"""Tests for the forwarder tables: Content Store, PIT and FIB."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import NDNError
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, WirePacket
from repro.ndn.pit import PendingInterestTable


def make_data(uri: str, freshness: float = 0.0) -> Data:
    return Data(name=Name(uri), content=b"x", freshness_period=freshness)


def interest_view(uri: str, **fields) -> WirePacket:
    """An Interest for ``uri`` as the wire view a forwarder receives."""
    return WirePacket(Interest(name=Name(uri), **fields).encode())


def data_view(uri: str) -> WirePacket:
    return WirePacket(make_data(uri).encode())


class TestContentStore:
    def test_insert_and_exact_find(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/b"))
        assert cs.find(Interest(name=Name("/a/b"))) is not None
        assert cs.hits == 1

    def test_miss_counts(self):
        cs = ContentStore(capacity=10)
        assert cs.find(Interest(name=Name("/nope"))) is None
        assert (cs.hits, cs.misses) == (0, 1)

    def test_zero_capacity_disables_caching(self):
        cs = ContentStore(capacity=0)
        cs.insert(make_data("/a"))
        assert len(cs) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(NDNError):
            ContentStore(capacity=-1)

    def test_exact_interest_does_not_prefix_match(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/b/1"))
        assert cs.find(Interest(name=Name("/a/b"))) is None

    def test_must_be_fresh_rejects_stale_entries(self):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=10, clock=lambda: clock["now"])
        cs.insert(make_data("/a", freshness=1.0))
        clock["now"] = 5.0
        assert cs.find(Interest(name=Name("/a"), must_be_fresh=True)) is None
        assert cs.find(Interest(name=Name("/a"))) is not None

    def test_fresh_entry_served_with_must_be_fresh(self):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=10, clock=lambda: clock["now"])
        cs.insert(make_data("/a", freshness=10.0))
        clock["now"] = 5.0
        assert cs.find(Interest(name=Name("/a"), must_be_fresh=True)) is not None

    def test_lru_evicts_least_recently_used(self):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=2, clock=lambda: clock["now"])
        cs.insert(make_data("/a"))
        clock["now"] = 1.0
        cs.insert(make_data("/b"))
        clock["now"] = 2.0
        cs.find(Interest(name=Name("/a")))  # touch /a so /b becomes LRU
        clock["now"] = 3.0
        cs.insert(make_data("/c"))
        assert "/a" in cs and "/c" in cs and "/b" not in cs

    def test_reinsert_refreshes_entry(self):
        cs = ContentStore(capacity=5)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/a"))
        assert len(cs) == 1

    def test_erase_drops_exactly_the_named_entry(self):
        cs = ContentStore(capacity=10)
        for uri in ("/a", "/a/1", "/a/2"):
            cs.insert(make_data(uri))
        cs.erase("/a/1")
        cs.erase("/a/3")  # never cached: a no-op
        assert [str(name) for name in cs.names()] == ["/a", "/a/2"]

    def test_stats_fields(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a"))
        cs.find(Interest(name=Name("/a")))
        assert len(cs) == 1
        assert cs.hits == 1


class TestContentStoreRegressions:
    def test_lru_refresh_does_update_recency(self):
        cs = ContentStore(capacity=2)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.insert(make_data("/a"))  # refresh counts as use under LRU
        cs.insert(make_data("/c"))  # evicts /b
        assert "/a" in cs and "/c" in cs and "/b" not in cs

    def test_refresh_honours_lowered_capacity(self):
        """Refreshing an existing name must evict when the store is over a
        capacity that was lowered after the entries were cached."""
        cs = ContentStore(capacity=4)
        for uri in ("/a", "/b", "/c", "/d"):
            cs.insert(make_data(uri))
        cs.capacity = 2
        cs.insert(make_data("/a"))  # refresh path
        assert len(cs) == 2
        assert cs.evictions == 2

    def test_new_insert_honours_lowered_capacity(self):
        cs = ContentStore(capacity=4)
        for uri in ("/a", "/b", "/c", "/d"):
            cs.insert(make_data(uri))
        cs.capacity = 2
        cs.insert(make_data("/e"))
        assert len(cs) == 2

    def test_insert_after_capacity_lowered_to_zero_empties_the_store(self):
        cs = ContentStore(capacity=4)
        for uri in ("/a", "/b", "/c"):
            cs.insert(make_data(uri))
        evicted = []
        cs.on_evict = evicted.append
        cs.capacity = 0
        cs.insert(make_data("/d"))
        assert len(cs) == 0
        assert evicted == [Name("/a"), Name("/b"), Name("/c")]
        assert cs.evictions == 3 and cs.insertions == 3
        assert cs.find(Interest(name=Name("/a"))) is None

    def test_find_after_eviction_does_not_resurrect(self):
        cs = ContentStore(capacity=1)
        evicted = []
        cs.on_evict = evicted.append
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))  # evicts /a/1
        assert evicted == [Name("/a/1")]
        assert cs.find(Interest(name=Name("/a/1"))) is None
        assert cs.find(Interest(name=Name("/a/2"))).name == Name("/a/2")

    def test_find_after_erase(self):
        """An erase drops its one name, tells the mirror once, and leaves
        the names it is a prefix of in place."""
        cs = ContentStore(capacity=10)
        for uri in ("/a/1", "/a/2"):
            cs.insert(make_data(uri))
        erased = []
        cs.on_evict = erased.append
        cs.erase("/a/1")
        cs.erase("/a")  # a prefix of /a/2, never cached itself
        assert erased == [Name("/a/1")]
        assert cs.find(Interest(name=Name("/a/1"))) is None
        assert cs.find(Interest(name=Name("/a/2"))).name == Name("/a/2")
        assert cs.evictions == 0

    def test_clear_tells_the_mirror_of_every_name_and_the_store_refills(self):
        cs = ContentStore(capacity=10)
        for uri in ("/a/1", "/b"):
            cs.insert(make_data(uri))
        dropped = []
        cs.on_evict = dropped.append
        cs.clear()
        assert dropped == [Name("/a/1"), Name("/b")]
        assert len(cs) == 0
        assert cs.find(Interest(name=Name("/a/1"))) is None
        cs.insert(make_data("/a/1"))
        assert cs.find(Interest(name=Name("/a/1"))).name == Name("/a/1")

class TestEvictionAccounting:
    def test_insertion_and_eviction_counters(self):
        cs = ContentStore(capacity=2)
        for uri in ("/a", "/b", "/c", "/d"):
            cs.insert(make_data(uri))
        assert cs.insertions == 4
        assert cs.evictions == 2
        assert len(cs) == 2

    def test_refresh_is_not_an_insertion(self):
        cs = ContentStore(capacity=4)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/a"))
        assert cs.insertions == 1
        assert cs.evictions == 0

    def test_capacity_zero_store_counts_nothing(self):
        cs = ContentStore(capacity=0)
        cs.insert(make_data("/a"))
        assert len(cs) == 0
        assert cs.insertions == 0
        assert cs.evictions == 0
        assert cs.find(Interest(name=Name("/a"))) is None
        assert (cs.hits, cs.misses) == (0, 1)

    def test_find_counts_hits_and_misses(self):
        cs = ContentStore(capacity=4)
        cs.insert(make_data("/a"))
        assert cs.find(Interest(name=Name("/a"))) is not None
        assert cs.find(Interest(name=Name("/b"))) is None
        assert cs.hits == 1 and cs.misses == 1

    def test_lru_find_updates_recency_without_clock(self):
        """The O(1) LRU path orders by access sequence, not wall clock."""
        cs = ContentStore(capacity=2)
        cs.insert(make_data("/a"))
        cs.insert(make_data("/b"))
        cs.find(Interest(name=Name("/a")))  # /b is now least recent
        cs.insert(make_data("/c"))
        assert "/b" not in cs
        assert "/a" in cs and "/c" in cs

class _ReferenceLruModel:
    """A deliberately-naive min-scan model of the LRU store.

    Evicts the entry with the oldest last access (refreshes included) by an
    O(n) scan.  A capacity change evicts nothing by itself: a new insert
    evicts while ``len >= capacity`` and a refresh while ``len > capacity``;
    at capacity 0 any insert empties the store and caches nothing.
    The property test below checks the O(1) implementation against it.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.last_access: dict[str, float] = {}
        self.hits = self.misses = self.insertions = self.evictions = 0

    def insert(self, uri: str, now: float) -> None:
        if self.capacity == 0:
            while self.last_access:
                self._evict()
            return
        if uri in self.last_access:
            self.last_access[uri] = now
            while len(self.last_access) > self.capacity:
                self._evict()
            return
        while len(self.last_access) >= self.capacity:
            self._evict()
        self.last_access[uri] = now
        self.insertions += 1

    def find(self, uri: str, now: float) -> bool:
        if uri not in self.last_access:
            self.misses += 1
            return False
        self.last_access[uri] = now
        self.hits += 1
        return True

    def _evict(self) -> None:
        del self.last_access[min(self.last_access, key=self.last_access.__getitem__)]
        self.evictions += 1


_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "find"]), st.sampled_from("abcde")),
        st.tuples(st.just("set_capacity"), st.integers(min_value=0, max_value=4)),
    ),
    max_size=40,
)


class TestLruReferenceModel:
    @given(ops=_ops)
    def test_o1_store_matches_reference_model(self, ops):
        clock = {"now": 0.0}
        cs = ContentStore(capacity=3, clock=lambda: clock["now"])
        model = _ReferenceLruModel(capacity=3)
        for op, arg in ops:
            clock["now"] += 1.0  # unique timestamps: no tie-break ambiguity
            if op == "set_capacity":
                cs.capacity = model.capacity = arg
            elif op == "insert":
                cs.insert(make_data(f"/{arg}"))
                model.insert(f"/{arg}", clock["now"])
            else:
                found = cs.find(Interest(name=Name(f"/{arg}"))) is not None
                assert found == model.find(f"/{arg}", clock["now"])
            recency = sorted(model.last_access, key=model.last_access.__getitem__)
            assert [str(n) for n in cs.names()] == recency
        assert (cs.hits, cs.misses) == (model.hits, model.misses)
        assert (cs.insertions, cs.evictions) == (model.insertions, model.evictions)


class TestCostIndependentOfStoreSize:
    """The store's per-operation cost, counted in calls rather than timed:
    the same operations make the same calls at 1 000 entries as at 20 000."""

    SIZES = (1_000, 20_000)
    OPS = 200

    @staticmethod
    def _full_store(size: int) -> ContentStore:
        cs = ContentStore(capacity=size)
        for index in range(size):
            cs.insert(Data(name=Name(f"/obj/{index // 100}/{index}"), content=b"z"))
        return cs

    def _insert_costs(self, call_count, size: int) -> tuple[float, int]:
        """Calls per insert into a full store, and the evictions they made."""
        cs = self._full_store(size)
        batch = [Data(name=Name(f"/new/{i}"), content=b"z") for i in range(self.OPS)]

        def insert():
            for data in batch:
                cs.insert(data)

        evictions = cs.evictions
        return call_count(insert) / self.OPS, cs.evictions - evictions

    def test_insert_with_eviction_costs_the_same_at_every_size(self, call_count):
        costs = [self._insert_costs(call_count, size) for size in self.SIZES]
        assert costs[0] == costs[1]
        assert costs[0][1] == self.OPS  # exactly one eviction per insert

    def test_find_costs_the_same_at_every_size(self, call_count):
        interests = [Interest(name=Name(f"/obj/{bucket}/{bucket * 100}")) for bucket in range(10)]
        per_find = []
        for size in self.SIZES:
            cs = self._full_store(size)
            found = []
            calls = call_count(lambda: found.extend(cs.find(i) for i in interests))
            assert all(data is not None for data in found)
            per_find.append(calls / len(interests))
        assert per_find[0] == per_find[1]


class TestPit:
    def test_insert_creates_entry(self):
        pit = PendingInterestTable()
        entry, is_new = pit.insert(interest_view("/a"), in_face_id=1)
        assert is_new
        assert entry.downstream_faces() == [1]
        assert len(pit) == 1

    def test_aggregation_of_same_name(self):
        pit = PendingInterestTable()
        pit.insert(interest_view("/a"), in_face_id=1)
        _, is_new = pit.insert(interest_view("/a"), in_face_id=2)
        assert not is_new
        assert pit.aggregated == 1
        assert len(pit) == 1

    def test_duplicate_nonce_detection(self):
        pit = PendingInterestTable()
        interest = interest_view("/a")
        pit.insert(interest, in_face_id=1)
        assert pit.is_duplicate_nonce(interest)
        other = interest_view("/a")
        assert not pit.is_duplicate_nonce(other)

    def test_satisfy_returns_the_entry_and_removes_it(self):
        pit = PendingInterestTable()
        entry, _ = pit.insert(interest_view("/a"), in_face_id=1)
        pit.insert(interest_view("/a"), in_face_id=2)
        assert pit.satisfy(data_view("/a")) is entry
        assert sorted(entry.downstream_faces()) == [1, 2]
        assert len(pit) == 0
        assert pit.satisfied == 1
        assert pit.satisfy(data_view("/a")) is None

    def test_exact_entry_not_satisfied_by_longer_data(self):
        pit = PendingInterestTable()
        pit.insert(interest_view("/a"), in_face_id=3)
        assert pit.satisfy(data_view("/a/b")) is None
        assert len(pit) == 1

    def test_names_with_the_same_characters_are_distinct_entries(self):
        """The key is the Name TLV's value, component headers included:
        ``/ab`` and ``/a/b`` share their characters but not their bytes."""
        pit = PendingInterestTable()
        pit.insert(interest_view("/ab"), in_face_id=1)
        pit.insert(interest_view("/a/b"), in_face_id=2)
        assert len(pit) == 2 and pit.aggregated == 0
        assert pit.satisfy(data_view("/a/b")).downstream_faces() == [2]
        assert [str(entry.name) for entry in pit.entries()] == ["/ab"]

    def test_a_wrapped_packet_and_a_wire_view_share_one_entry(self):
        """An endpoint's own packet (``WirePacket.of``) keys the same entry
        as a view of received bytes with the same name."""
        pit = PendingInterestTable()
        entry, _ = pit.insert(WirePacket.of(Interest(name=Name("/a/b"))), in_face_id=1)
        _, is_new = pit.insert(interest_view("/a/b"), in_face_id=2)
        assert not is_new
        assert pit.satisfy(WirePacket.of(make_data("/a/b"))) is entry
        assert entry.downstream_faces() == [1, 2]
        assert len(pit) == 0

    def test_the_table_never_hashes_a_name(self, monkeypatch):
        """Every probe keys on name bytes: no ``Name.__hash__`` or
        ``Name.__eq__`` on the Interest or the Data path."""
        calls = []
        real_hash, real_eq = Name.__hash__, Name.__eq__
        monkeypatch.setattr(Name, "__hash__", lambda self: calls.append("hash") or real_hash(self))
        monkeypatch.setattr(
            Name, "__eq__", lambda self, other: calls.append("eq") or real_eq(self, other))
        pit = PendingInterestTable()
        interest = interest_view("/a/b/c")
        pit.insert(interest, in_face_id=1)
        pit.insert(interest_view("/a/b/c"), in_face_id=2)
        assert pit.is_duplicate_nonce(interest)
        pit.record_out(interest, out_face_id=9)
        assert pit.find_exact(interest) is not None
        assert pit.satisfy(data_view("/a/b/c")).downstream_faces() == [1, 2]
        assert pit.satisfy(data_view("/a/b")) is None
        assert calls == []

    def test_record_out_and_upstreams(self):
        pit = PendingInterestTable()
        interest = interest_view("/a")
        entry, _ = pit.insert(interest, in_face_id=1)
        pit.record_out(interest, out_face_id=9)
        assert list(entry.out_records) == [9]

    def test_expiry_removes_old_entries(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        pit.insert(interest_view("/a", lifetime=1.0), in_face_id=1)
        clock["now"] = 0.5
        assert pit.expire() == []
        clock["now"] = 2.0
        expired = pit.expire()
        assert len(expired) == 1
        assert len(pit) == 0

    def test_remove_specific_entry(self):
        pit = PendingInterestTable()
        interest = interest_view("/a")
        pit.insert(interest, in_face_id=1)
        pit.remove(interest)
        assert len(pit) == 0

    def test_stats(self):
        pit = PendingInterestTable()
        pit.insert(interest_view("/a"), in_face_id=1)
        pit.insert(interest_view("/a"), in_face_id=2)
        assert len(pit) == 1
        assert (pit.aggregated, pit.satisfied, pit.expired) == (1, 0, 0)

    def test_record_out_extends_entry_lifetime(self):
        """A later out-record pushes the whole entry's expiry out; the lazy
        heap must revalidate instead of dropping at the first deadline."""
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        interest = interest_view("/a", lifetime=1.0)
        pit.insert(interest, in_face_id=1)
        clock["now"] = 0.8
        pit.record_out(interest, out_face_id=9)  # expiry now 1.8
        clock["now"] = 1.2
        assert pit.expire() == []  # first deadline (1.0) passed, entry extended
        assert len(pit) == 1
        clock["now"] = 2.0
        expired = pit.expire()
        assert len(expired) == 1
        assert pit.expired == 1
        assert len(pit) == 0

    def test_expire_after_satisfy_skips_stale_heap_entries(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        pit.insert(interest_view("/a", lifetime=1.0), in_face_id=1)
        pit.satisfy(data_view("/a"))
        clock["now"] = 5.0
        assert pit.expire() == []
        assert pit.expired == 0

    def test_reinserted_name_not_expired_by_stale_deadline(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        pit.insert(interest_view("/a", lifetime=1.0), in_face_id=1)
        pit.satisfy(data_view("/a"))
        clock["now"] = 1.5  # first deadline has passed
        pit.insert(interest_view("/a", lifetime=10.0), in_face_id=2)
        assert pit.expire() == []  # stale heap item must not kill the new entry
        assert len(pit) == 1

    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "satisfy", "remove", "tick"]),
            st.sampled_from(["/", "/a", "/a/b", "/x"]),
        ),
        max_size=40,
    ))
    def test_table_agrees_with_a_dict_model_on_every_removal_path(self, ops):
        """Insert, satisfy, remove and expire in any interleaving leave the
        table holding exactly the names a plain dict of expiries holds."""
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        model: dict[str, float] = {}
        for op, uri in ops:
            if op == "insert":
                pit.insert(interest_view(uri, lifetime=1.0), in_face_id=1)
                model[uri] = clock["now"] + 1.0
            elif op == "satisfy":
                entry = pit.satisfy(data_view(uri))
                assert (entry is not None) == (model.pop(uri, None) is not None)
            elif op == "remove":
                pit.remove(interest_view(uri))
                model.pop(uri, None)
            else:
                clock["now"] += 0.6
                due = {name for name, expiry in model.items() if expiry <= clock["now"]}
                assert {str(entry.name) for entry in pit.expire()} == due
                for name in due:
                    del model[name]
            assert sorted(str(entry.name) for entry in pit.entries()) == sorted(model)


class TestNameTreeAndFib:
    def test_exact_and_lpm(self):
        fib = Fib()
        fib.add_route("/a", face_id=1)
        fib.add_route("/a/b/c", face_id=2)
        assert [str(entry.prefix) for entry in fib.entries()] == ["/a", "/a/b/c"]
        assert fib.lookup("/a/b/c/d").prefix == Name("/a/b/c")
        assert fib.lookup("/a/x").prefix == Name("/a")

    def test_lpm_no_match(self):
        fib = Fib()
        fib.add_route("/a", face_id=1)
        assert fib.lookup("/b/c") is None

    def test_remove_prunes(self):
        fib = Fib()
        fib.add_route("/a/b/c", face_id=1)
        assert fib.remove_route("/a/b/c", 1)
        assert len(fib) == 0 and fib.entries() == []
        assert not fib.remove_route("/a/b/c", 1)

    def test_remove_keeps_other_branches(self):
        fib = Fib()
        fib.add_route("/a/b", face_id=1)
        fib.add_route("/a/c", face_id=1)
        fib.remove_route("/a/b", 1)
        assert [str(entry.prefix) for entry in fib.entries()] == ["/a/c"]

    def test_entries_iteration(self):
        fib = Fib()
        for prefix in ("/b", "/a", "/a/x"):
            fib.add_route(prefix, face_id=1)
        assert [str(entry.prefix) for entry in fib.entries()] == ["/a", "/a/x", "/b"]

    def test_fib_exports_no_name_tree_facade(self):
        import repro.ndn
        from repro.ndn import fib

        assert not hasattr(repro.ndn, "NameTree")
        assert "NameTree" not in repro.ndn.__all__
        assert fib.__all__ == ["FibEntry", "Fib"]

    def test_fib_add_and_lookup(self):
        fib = Fib()
        fib.add_route("/ndn/k8s/compute", face_id=1, cost=10)
        fib.add_route("/ndn/k8s/data", face_id=2, cost=5)
        entry = fib.lookup("/ndn/k8s/compute/app=BLAST")
        assert entry is not None
        assert entry.nexthops[0].face_id == 1
        assert fib.lookup("/ndn/k8s/data/file").nexthops[0].face_id == 2

    def test_fib_longest_prefix_wins(self):
        fib = Fib()
        fib.add_route("/ndn", face_id=1)
        fib.add_route("/ndn/k8s/compute", face_id=2)
        assert fib.lookup("/ndn/k8s/compute/x").nexthops[0].face_id == 2
        assert fib.lookup("/ndn/other").nexthops[0].face_id == 1

    def test_fib_nexthops_sorted_by_cost(self):
        fib = Fib()
        fib.add_route("/a", face_id=1, cost=20)
        fib.add_route("/a", face_id=2, cost=5)
        entry = fib.lookup("/a/x")
        assert [hop.face_id for hop in entry.nexthops] == [2, 1]

    def test_fib_update_existing_nexthop_cost(self):
        fib = Fib()
        fib.add_route("/a", face_id=1, cost=20)
        fib.add_route("/a", face_id=1, cost=1)
        entry = fib.lookup("/a")
        assert len(entry.nexthops) == 1
        assert entry.nexthops[0].cost == 1

    def test_fib_remove_route_drops_empty_entry(self):
        fib = Fib()
        fib.add_route("/a", face_id=1)
        assert fib.remove_route("/a", 1)
        assert fib.lookup("/a/b") is None
        assert len(fib) == 0

    def test_fib_remove_face_everywhere(self):
        fib = Fib()
        fib.add_route("/a", face_id=1)
        fib.add_route("/b", face_id=1)
        fib.add_route("/b", face_id=2)
        assert fib.remove_face(1) == 2
        assert fib.lookup("/a/x") is None
        assert fib.lookup("/b/x").nexthops[0].face_id == 2

    def test_fib_invalid_face_rejected(self):
        with pytest.raises(NDNError):
            Fib().add_route("/a", face_id=-1)


_name_strategy = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=5
).map(lambda parts: Name(parts))


class TestFibProperties:
    @given(prefixes=st.lists(_name_strategy, min_size=1, max_size=20, unique_by=str),
           query=_name_strategy)
    def test_lpm_returns_longest_matching_registered_prefix(self, prefixes, query):
        fib = Fib()
        for index, prefix in enumerate(prefixes):
            fib.add_route(prefix, face_id=index + 1)
        entry = fib.lookup(query)
        matching = [p for p in prefixes if p.is_prefix_of(query)]
        if not matching:
            assert entry is None
        else:
            assert entry is not None
            assert entry.prefix == max(matching, key=len)


from collections import OrderedDict


class _CountingEntries(OrderedDict):
    """OrderedDict instrumented to count recency updates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.move_calls = 0

    def move_to_end(self, *args, **kwargs):
        self.move_calls += 1
        return super().move_to_end(*args, **kwargs)


class TestUnboundedCapacity:
    """The store has no unbounded mode: every hit pays the LRU recency
    update, and the capacity setter guards the bound like the constructor."""

    def test_bounded_lru_hit_still_updates_recency(self):
        cs = ContentStore(capacity=100)
        for i in range(100):
            cs.insert(make_data(f"/n/{i}"))
        counting = _CountingEntries(cs._entries)
        cs._entries = counting
        for i in range(100):
            cs.find(Interest(name=Name(f"/n/{i}")))
        assert counting.move_calls == 100

    def test_negative_capacity_still_rejected_via_setter(self):
        cs = ContentStore(capacity=4)
        with pytest.raises(NDNError):
            cs.capacity = -1
        assert cs.capacity == 4
