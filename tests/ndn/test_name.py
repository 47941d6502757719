"""Tests for NDN names and components."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import NameError_
from repro.ndn.name import Component, Name


class TestComponent:
    def test_from_string(self):
        comp = Component("compute")
        assert comp.value == b"compute"
        assert comp.to_str() == "compute"

    def test_from_bytes(self):
        assert Component(b"\x01\x02").value == b"\x01\x02"

    def test_empty_component_rejected(self):
        with pytest.raises(NameError_):
            Component("")
        with pytest.raises(NameError_):
            Component(b"")

    def test_invalid_type_rejected(self):
        with pytest.raises(NameError_):
            Component(42)  # type: ignore[arg-type]

    def test_equality_with_strings(self):
        assert Component("abc") == "abc"
        assert Component("abc") == b"abc"
        assert Component("abc") != "abd"

    def test_canonical_order_shorter_first(self):
        assert Component("ab") < Component("abc")
        assert Component("abc") < Component("abd")

    def test_escaped_round_trip(self):
        comp = Component("mem=4&cpu=6")
        assert Component.from_escaped(comp.escaped()) == comp

    def test_hashable(self):
        assert len({Component("a"), Component("a"), Component("b")}) == 2


class TestNameParsing:
    def test_parse_uri(self):
        name = Name("/ndn/k8s/compute")
        assert len(name) == 3
        assert name[0] == Component("ndn")
        assert name.to_uri() == "/ndn/k8s/compute"

    def test_root_name(self):
        assert len(Name("/")) == 0
        assert Name("/").to_uri() == "/"
        assert not Name("/")

    def test_none_gives_root(self):
        assert Name() == Name("/")

    def test_ndn_scheme_prefix_stripped(self):
        assert Name("ndn:/a/b") == Name("/a/b")

    def test_relative_uri_rejected(self):
        with pytest.raises(NameError_):
            Name("a/b")

    def test_from_components(self):
        assert Name(["a", "b", b"c"]).to_uri() == "/a/b/c"

    def test_copy_constructor(self):
        original = Name("/x/y")
        assert Name(original) == original

    def test_paper_compute_name_round_trips(self):
        uri = "/ndn/k8s/compute/mem=4&cpu=6&app=BLAST"
        assert Name(uri).to_uri() == uri

    def test_str_and_repr(self):
        name = Name("/a/b")
        assert str(name) == "/a/b"
        assert "Name" in repr(name)


class TestNameOperations:
    def test_append_component(self):
        assert Name("/a").append("b").to_uri() == "/a/b"

    def test_append_multi_component_path(self):
        assert Name("/a").append("b/c").to_uri() == "/a/b/c"

    def test_append_name(self):
        assert Name("/a").append(Name("/b/c")).to_uri() == "/a/b/c"

    def test_append_does_not_mutate(self):
        base = Name("/a")
        base.append("b")
        assert base.to_uri() == "/a"

    def test_prefix(self):
        name = Name("/a/b/c/d")
        assert name.prefix(2).to_uri() == "/a/b"
        assert name.prefix(-1).to_uri() == "/a/b/c"

    def test_parent_and_last(self):
        name = Name("/a/b/c")
        assert name.parent().to_uri() == "/a/b"
        assert name.last() == Component("c")

    def test_parent_of_root_raises(self):
        with pytest.raises(NameError_):
            Name("/").parent()
        with pytest.raises(NameError_):
            Name("/").last()

    def test_suffix(self):
        assert Name("/a/b/c").suffix(1).to_uri() == "/b/c"

    def test_getitem_and_slice(self):
        name = Name("/a/b/c")
        assert name[1] == Component("b")
        assert name[1:].to_uri() == "/b/c"

    def test_is_prefix_of(self):
        assert Name("/ndn/k8s").is_prefix_of("/ndn/k8s/compute")
        assert Name("/ndn/k8s").is_prefix_of(Name("/ndn/k8s"))
        assert not Name("/ndn/k8s/compute").is_prefix_of("/ndn/k8s")
        assert not Name("/ndn/other").is_prefix_of("/ndn/k8s/compute")

    def test_equality_with_uri_string(self):
        assert Name("/a/b") == "/a/b"

    def test_ordering(self):
        assert Name("/a") < Name("/a/b")
        assert Name("/a/b") <= Name("/a/b")
        assert Name("/b") > Name("/a")
        assert Name("/b") >= Name("/a")

    def test_hashable_usable_as_dict_key(self):
        table = {Name("/a/b"): 1}
        assert table[Name("/a/b")] == 1


_component_text = st.text(
    alphabet=st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1, max_size=12,
)


class TestNameProperties:
    @given(parts=st.lists(_component_text, min_size=0, max_size=6))
    def test_uri_round_trip(self, parts):
        name = Name([Component(p) for p in parts]) if parts else Name()
        assert Name(name.to_uri()) == name

    @given(parts=st.lists(_component_text, min_size=1, max_size=6),
           extra=st.lists(_component_text, min_size=0, max_size=3))
    def test_prefix_relation_holds_after_append(self, parts, extra):
        base = Name([Component(p) for p in parts])
        extended = base.append(*[Component(e) for e in extra]) if extra else base
        assert base.is_prefix_of(extended)
        assert extended[:len(base)] == base

    @given(parts=st.lists(_component_text, min_size=1, max_size=6))
    def test_prefix_plus_suffix_reassembles(self, parts):
        name = Name([Component(p) for p in parts])
        cut = len(name) // 2
        assert name.prefix(cut).append(name.suffix(cut)) == name
