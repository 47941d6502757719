"""Tests for the forwarder tables: Content Store, PIT and FIB."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import NDNError
from repro.ndn.cs import ContentStore
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.ndn.pit import PendingInterestTable


def make_data(uri: str, freshness: float = 0.0) -> Data:
    return Data(name=Name(uri), content=b"x", freshness_period=freshness)


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

    def test_prefix_match_returns_smallest_name(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/b/2"))
        cs.insert(make_data("/a/b/1"))
        found = cs.find(Interest(name=Name("/a/b"), can_be_prefix=True))
        assert found.name == Name("/a/b/1")

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

    def test_erase_prefix(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))
        cs.insert(make_data("/b/1"))
        assert cs.erase("/a") == 2
        assert len(cs) == 1

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

    def test_prefix_find_after_eviction_does_not_resurrect(self):
        cs = ContentStore(capacity=1)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))  # evicts /a/1
        found = cs.find(Interest(name=Name("/a"), can_be_prefix=True))
        assert found.name == Name("/a/2")

    def test_prefix_find_after_erase(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/a/2"))
        cs.insert(make_data("/b/1"))
        cs.erase("/a")
        assert cs.find(Interest(name=Name("/a"), can_be_prefix=True)) is None
        assert cs.find(Interest(name=Name("/b"), can_be_prefix=True)) is not None

    def test_clear_resets_prefix_index(self):
        cs = ContentStore(capacity=10)
        cs.insert(make_data("/a/1"))
        cs.clear()
        assert cs.find(Interest(name=Name("/a"), can_be_prefix=True)) is None
        cs.insert(make_data("/a/2"))
        found = cs.find(Interest(name=Name("/a"), can_be_prefix=True))
        assert found.name == Name("/a/2")


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

    def test_lru_prefix_find_updates_recency(self):
        cs = ContentStore(capacity=2)
        cs.insert(make_data("/a/1"))
        cs.insert(make_data("/b/1"))
        cs.find(Interest(name=Name("/a"), can_be_prefix=True))
        cs.insert(make_data("/c/1"))
        assert "/b/1" not in cs
        assert "/a/1" in cs


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

    def _insert_costs(self, call_count, size: int) -> tuple[float, float, int]:
        """Calls per insert into a full store, before and after the prefix
        index is built, and the evictions those inserts made."""
        cs = self._full_store(size)
        batches = [
            [Data(name=Name(f"/new/{phase}/{i}"), content=b"z") for i in range(self.OPS)]
            for phase in range(2)
        ]

        def insert(batch):
            for data in batch:
                cs.insert(data)

        evictions = cs.evictions
        exact_only = call_count(lambda: insert(batches[0]))
        cs.find(Interest(name=Name("/new"), can_be_prefix=True))  # builds the index
        indexed = call_count(lambda: insert(batches[1]))
        return exact_only / self.OPS, indexed / self.OPS, cs.evictions - evictions

    def test_insert_with_eviction_costs_the_same_at_every_size(self, call_count):
        costs = [self._insert_costs(call_count, size) for size in self.SIZES]
        assert costs[0] == costs[1]
        assert costs[0][2] == 2 * self.OPS  # exactly one eviction per insert

    def test_prefix_find_costs_the_same_at_every_size(self, call_count):
        interests = [
            Interest(name=Name(f"/obj/{bucket}"), can_be_prefix=True) for bucket in range(10)
        ]
        per_find = []
        for size in self.SIZES:
            cs = self._full_store(size)
            cs.find(interests[0])  # builds the index outside the count
            found = []
            calls = call_count(lambda: found.extend(cs.find(i) for i in interests))
            assert all(data is not None for data in found)
            per_find.append(calls / len(interests))
        assert per_find[0] == per_find[1]


class TestPit:
    def test_insert_creates_entry(self):
        pit = PendingInterestTable()
        entry, is_new = pit.insert(Interest(name=Name("/a")), in_face_id=1)
        assert is_new
        assert entry.downstream_faces() == [1]
        assert len(pit) == 1

    def test_aggregation_of_same_name(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        _, is_new = pit.insert(Interest(name=Name("/a")), in_face_id=2)
        assert not is_new
        assert pit.aggregated == 1
        assert len(pit) == 1

    def test_duplicate_nonce_detection(self):
        pit = PendingInterestTable()
        interest = Interest(name=Name("/a"))
        pit.insert(interest, in_face_id=1)
        assert pit.is_duplicate_nonce(interest)
        other = Interest(name=Name("/a"))
        assert not pit.is_duplicate_nonce(other)

    def test_satisfy_returns_downstream_faces_and_removes_entry(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        pit.insert(Interest(name=Name("/a")), in_face_id=2)
        faces = pit.satisfy(make_data("/a"))
        assert sorted(faces) == [1, 2]
        assert len(pit) == 0
        assert pit.satisfied == 1

    def test_prefix_entry_satisfied_by_longer_data(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=3)
        assert pit.satisfy(make_data("/a/b/c")) == [3]

    def test_exact_entry_not_satisfied_by_longer_data(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=3)
        assert pit.satisfy(make_data("/a/b")) == []

    def test_record_out_and_upstreams(self):
        pit = PendingInterestTable()
        interest = Interest(name=Name("/a"))
        entry, _ = pit.insert(interest, in_face_id=1)
        pit.record_out(interest, out_face_id=9)
        assert list(entry.out_records) == [9]

    def test_entry_at_finds_the_entry_under_its_key(self):
        pit = PendingInterestTable()
        exact, _ = pit.insert(Interest(name=Name("/a")), in_face_id=1)
        prefix, _ = pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=2)
        assert pit.entry_at((Name("/a"), False)) is exact
        assert pit.entry_at((Name("/a"), True)) is prefix
        assert pit.entry_at((Name("/b"), False)) is None

    def test_entry_at_is_none_once_satisfied(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        assert pit.satisfy(make_data("/a")) == [1]
        assert pit.entry_at((Name("/a"), False)) is None

    def test_expiry_removes_old_entries(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        pit.insert(Interest(name=Name("/a"), lifetime=1.0), in_face_id=1)
        clock["now"] = 0.5
        assert pit.expire() == []
        clock["now"] = 2.0
        expired = pit.expire()
        assert len(expired) == 1
        assert len(pit) == 0

    def test_remove_specific_entry(self):
        pit = PendingInterestTable()
        interest = Interest(name=Name("/a"))
        pit.insert(interest, in_face_id=1)
        pit.remove(interest)
        assert len(pit) == 0

    def test_stats(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a")), in_face_id=1)
        pit.insert(Interest(name=Name("/a")), in_face_id=2)
        assert len(pit) == 1
        assert (pit.aggregated, pit.satisfied, pit.expired) == (1, 0, 0)

    def test_record_out_extends_entry_lifetime(self):
        """A later out-record pushes the whole entry's expiry out; the lazy
        heap must revalidate instead of dropping at the first deadline."""
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        interest = Interest(name=Name("/a"), lifetime=1.0)
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
        pit.insert(Interest(name=Name("/a"), lifetime=1.0), in_face_id=1)
        pit.satisfy(make_data("/a"))
        clock["now"] = 5.0
        assert pit.expire() == []
        assert pit.expired == 0

    def test_reinserted_name_not_expired_by_stale_deadline(self):
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        first = Interest(name=Name("/a"), lifetime=1.0)
        pit.insert(first, in_face_id=1)
        pit.satisfy(make_data("/a"))
        clock["now"] = 1.5  # first deadline has passed
        second = Interest(name=Name("/a"), lifetime=10.0)
        pit.insert(second, in_face_id=2)
        assert pit.expire() == []  # stale heap item must not kill the new entry
        assert len(pit) == 1

    def test_satisfy_matches_entries_at_every_prefix_depth(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/"), can_be_prefix=True), in_face_id=1)
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=2)
        pit.insert(Interest(name=Name("/a/b/c"), can_be_prefix=True), in_face_id=3)
        pit.insert(Interest(name=Name("/a/b/c")), in_face_id=4)  # exact
        pit.insert(Interest(name=Name("/a/x"), can_be_prefix=True), in_face_id=5)
        faces = pit.satisfy(make_data("/a/b/c"))
        assert sorted(faces) == [1, 2, 3, 4]
        assert len(pit) == 1  # only the /a/x prefix entry remains

    def test_find_matching_agrees_with_matches_data(self):
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=1)
        pit.insert(Interest(name=Name("/a/b")), in_face_id=2)
        pit.insert(Interest(name=Name("/other")), in_face_id=3)
        data = make_data("/a/b")
        entries = list(pit.entries())
        assert sorted(pit.satisfy(data)) == [1, 2]
        remaining = list(pit.entries())
        assert [str(e.name) for e in remaining] == ["/other"]
        for entry in entries:
            assert entry.matches_data(data) == all(entry is not kept for kept in remaining)

    def test_exact_only_table_builds_no_prefix_names_per_data(self, monkeypatch):
        """While no ``can_be_prefix`` entry is live the Data path probes the
        exact key only — it must not build one ``Name`` per prefix length."""
        built = []
        real_prefix = Name.prefix
        monkeypatch.setattr(
            Name, "prefix", lambda self, n: built.append(n) or real_prefix(self, n)
        )
        pit = PendingInterestTable()
        pit.insert(Interest(name=Name("/a/b/c/d")), in_face_id=1)
        assert pit.satisfy(make_data("/a/b/c/d")) == [1]
        assert built == []
        pit.insert(Interest(name=Name("/a"), can_be_prefix=True), in_face_id=2)
        assert pit.satisfy(make_data("/a/b/c/d")) == [2]
        assert built == [0, 1, 2, 3, 4]

    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "satisfy", "remove", "remove_key", "tick"]),
            st.sampled_from(["/", "/a", "/a/b", "/a/b/c", "/x"]),
            st.booleans(),
        ),
        max_size=40,
    ))
    def test_prefix_entry_counter_survives_every_removal_path(self, ops):
        """The counter that gates the prefix probes is kept by insert,
        satisfy, remove, remove_from_key and expire: after any interleaving
        the probing lookup still agrees with a scan of every entry."""
        clock = {"now": 0.0}
        pit = PendingInterestTable(clock=lambda: clock["now"])
        for op, uri, can_be_prefix in ops:
            interest = Interest(name=Name(uri), can_be_prefix=can_be_prefix, lifetime=1.0)
            if op == "insert":
                pit.insert(interest, in_face_id=1)
            elif op == "satisfy":
                pit.satisfy(make_data(uri))
            elif op == "remove":
                pit.remove(interest)
            elif op == "remove_key":
                pit.remove_from_key((Name(uri), can_be_prefix))
            else:
                clock["now"] += 0.6
                pit.expire()
            entries = list(pit.entries())
            assert pit._prefix_entries == sum(entry.can_be_prefix for entry in entries)
            for probe in ("/a/b/c", "/x", "/"):
                data = make_data(probe)
                unmatched = {(entry.name, entry.can_be_prefix)
                             for entry in entries if not entry.matches_data(data)}
                probed = copy.deepcopy(pit)
                probed.satisfy(data)
                assert {(entry.name, entry.can_be_prefix)
                        for entry in probed.entries()} == unmatched


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
