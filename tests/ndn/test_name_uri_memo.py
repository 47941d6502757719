"""Property tests for the memoised name URI and the memoised URI parse.

``Name`` keeps its formatted URI in a slot beside the hash, and
``parse_name`` hands out one ``Name`` per distinct URI.  The memos must be
invisible: same text and name as building them from scratch, never
inherited by a derived name, carried (or rebuilt) across ``copy``/``pickle``,
and without effect on hash, equality or order.
"""

import copy
import pickle
import urllib.parse

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import NameError_
from repro.ndn.name import Component, Name, parse_name
from repro.ndn.packet import Interest, WirePacket, encode_name_value

_component_bytes = st.binary(min_size=1, max_size=10)
_names = st.lists(_component_bytes, min_size=0, max_size=6).map(Name)


def format_from_scratch(name: Name) -> str:
    """The URI of ``name``, built from its components with no ``Name`` code."""
    return "/" + "/".join(
        urllib.parse.quote(component.value, safe="-_.~=&+:") for component in name
    )


class TestUriMemo:
    @given(name=_names)
    def test_str_equals_formatting_from_scratch(self, name):
        first = str(name)
        assert first == format_from_scratch(name)
        assert name.to_uri() is first and str(name) is first  # one string per name
        assert repr(name) == f"Name({first!r})"

    @given(parts=st.lists(_component_bytes, min_size=0, max_size=6))
    def test_equal_names_built_three_ways_format_identically(self, parts):
        from_parts = Name(parts)
        from_uri = Name(str(from_parts))
        on_the_wire = WirePacket(Interest(name=Name(parts)).encode()).name
        assert from_parts == from_uri == on_the_wire
        assert str(from_parts) == str(from_uri) == str(on_the_wire) == format_from_scratch(from_parts)
        assert str(Name(from_parts)) == str(from_parts)  # copy constructor

    @given(name=_names, extra=st.lists(_component_bytes, min_size=1, max_size=3),
           cut=st.integers(min_value=0, max_value=6), data=st.data())
    def test_names_derived_from_a_formatted_name_format_themselves(self, name, extra, cut, data):
        str(name)  # fill the memo first: nothing below may inherit it
        derived = [
            name.append(*[Component(part) for part in extra]),
            name.append(Name(extra)),
            name.prefix(cut),
            name.prefix(-1),
            name.suffix(cut),
            name[:cut],
            name[cut:],
            name[::2],
        ]
        if name:
            derived.append(name.parent())
        for other in derived:
            assert str(other) == format_from_scratch(other)
        # ... and deriving from the derived, formatted ones again.
        longer = derived[0]
        keep = data.draw(st.integers(min_value=0, max_value=len(longer)))
        assert str(longer.prefix(keep)) == format_from_scratch(longer.prefix(keep))
        assert str(name) == format_from_scratch(name)

    @given(name=_names, formatted=st.booleans())
    def test_copy_and_pickle_round_trip_with_the_memo_slot(self, name, formatted):
        if formatted:
            str(name)
        clones = [copy.copy(name), copy.deepcopy(name)]
        clones += [pickle.loads(pickle.dumps(name, protocol))
                   for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert clone == name and hash(clone) == hash(name)
            assert str(clone) == format_from_scratch(name)
            assert tuple(clone) == tuple(name)

    @given(a=_names, b=_names)
    def test_formatting_leaves_hash_equality_and_order_alone(self, a, b):
        def observed():
            return (
                hash(a), hash(b), a == b, a != b, a < b, a <= b, a > b, a >= b,
                a.is_prefix_of(b),
            )

        before = observed()
        str(a), str(b)
        assert observed() == before
        assert hash(a) == hash(encode_name_value(a))  # a name hashes as its wire bytes
        assert (a == b) == (tuple(a) == tuple(b))
        assert (a < b) == (tuple(a) < tuple(b))
        assert (hash(a) == hash(b)) or a != b


class TestParseMemo:
    @given(parts=st.lists(_component_bytes, min_size=0, max_size=6))
    def test_a_memo_returned_name_is_the_parsed_name(self, parts):
        uri = format_from_scratch(Name(parts))
        memo = parse_name(uri)
        assert memo is parse_name(uri)  # one Name per distinct URI
        parsed = Name(uri)
        assert memo == parsed and hash(memo) == hash(parsed)
        assert tuple(memo) == tuple(parsed)
        assert str(memo) == str(parsed) == uri

    def test_a_bad_uri_raises_every_time(self):
        for _ in range(2):  # a failed parse is not memoised
            with pytest.raises(NameError_):
                parse_name("no-leading-slash")
