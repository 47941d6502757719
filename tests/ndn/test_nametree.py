"""Tests for the name-prefix trie behind the FIB."""

import pytest
from hypothesis import given, strategies as st

from repro.ndn.name import Name
from repro.ndn.nametree import NameTree


def put(tree: NameTree, name, value) -> None:
    """Store ``value`` at a name not yet in ``tree``."""
    tree.setdefault(name, lambda _name: value)


class TestPointOperations:
    def test_stored_value_round_trips(self):
        tree = NameTree()
        put(tree, "/a/b", 1)
        assert tree.get("/a/b") == 1
        assert tree.get(Name("/a/b")) == 1
        assert len(tree) == 1

    def test_get_missing_returns_default(self):
        tree = NameTree()
        assert tree.get("/nope") is None
        assert tree.get("/nope", default=42) == 42

    def test_stored_none_is_distinct_from_absent(self):
        tree = NameTree()
        put(tree, "/a", None)
        assert tree.get("/a", default=0) is None
        assert len(tree) == 1
        assert tree.get("/b", default=0) == 0

    def test_root_name_is_a_valid_key(self):
        tree = NameTree()
        put(tree, "/", "root")
        assert tree.get(Name()) == "root"
        assert tree.longest_prefix_item("/a/b") == (Name(), "root")

    def test_setdefault_creates_once(self):
        tree = NameTree()
        created = []

        def factory(name):
            created.append(name)
            return {"name": name}

        first = tree.setdefault("/a/b", factory)
        second = tree.setdefault("/a/b", factory)
        assert first is second
        assert created == [Name("/a/b")]

    def test_remove_prunes_empty_branches(self):
        tree = NameTree()
        put(tree, "/a/b/c", 1)
        assert tree.remove("/a/b/c")
        assert len(tree) == 0
        assert not tree.remove("/a/b/c")
        # The whole branch is gone, not just the leaf's value.
        assert tree.get("/a") is None
        assert list(tree.items()) == []

    def test_remove_keeps_shared_branches(self):
        tree = NameTree()
        put(tree, "/a/b", 1)
        put(tree, "/a/c", 2)
        tree.remove("/a/b")
        assert tree.get("/a/c") == 2

    def test_remove_interior_value_keeps_descendants(self):
        tree = NameTree()
        put(tree, "/a", 1)
        put(tree, "/a/b", 2)
        assert tree.remove("/a")
        assert tree.get("/a/b") == 2
        assert len(tree) == 1

class TestPrefixOperations:
    def test_longest_prefix_item(self):
        tree = NameTree()
        put(tree, "/a", "short")
        put(tree, "/a/b/c", "long")
        assert tree.longest_prefix_item("/a/b/c/d") == (Name("/a/b/c"), "long")
        assert tree.longest_prefix_item("/a/x") == (Name("/a"), "short")
        assert tree.longest_prefix_item("/zzz") is None

    def test_items_canonical_order(self):
        tree = NameTree()
        for uri in ("/b", "/a/x", "/a", "/a/x/y", "/c"):
            put(tree, uri, uri)
        names = [name for name, _ in tree.items()]
        assert names == sorted(names)
        assert len(names) == 5

_names = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=2), min_size=1, max_size=4
).map(lambda parts: Name(parts))


class TestProperties:
    @given(entries=st.dictionaries(_names, st.integers(), max_size=20))
    def test_behaves_like_a_dict_for_point_ops(self, entries):
        tree = NameTree()
        for name, value in entries.items():
            put(tree, name, value)
        assert len(tree) == len(entries)
        for name, value in entries.items():
            assert tree.get(name) == value
        assert {name for name, _ in tree.items()} == set(entries)

    @given(entries=st.dictionaries(_names, st.integers(), max_size=20), query=_names)
    def test_longest_prefix_equals_scan(self, entries, query):
        tree = NameTree()
        for name, value in entries.items():
            put(tree, name, value)
        matching = [name for name in entries if name.is_prefix_of(query)]
        item = tree.longest_prefix_item(query)
        if not matching:
            assert item is None
        else:
            assert item is not None
            assert item[0] == max(matching, key=len)

    @given(entries=st.lists(_names, min_size=1, max_size=20, unique_by=str))
    def test_insert_remove_all_leaves_empty_tree(self, entries):
        tree = NameTree()
        for name in entries:
            put(tree, name, str(name))
        for name in entries:
            assert tree.remove(name)
        assert len(tree) == 0
        assert list(tree.items()) == []
