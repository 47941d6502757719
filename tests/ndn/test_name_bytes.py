"""A name is its wire bytes: the contract that makes byte compares name compares.

:class:`~repro.ndn.name.Name` holds its Name TLV-VALUE and hashes, compares
and prefix-tests those bytes.  That is name equality and NDN canonical order
only while every component TLV is a minimally encoded GenericNameComponent,
so the parser rejects anything else, and every way of building a name must
produce the same bytes.
"""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import TLVDecodeError
from repro.ndn.name import Name
from repro.ndn.nametree import NameTree
from repro.ndn.packet import Interest, WirePacket, encode_name_value
from repro.ndn.tlv import TlvTypes, _decode_tlv_header, decode_tlv_header, encode_tlv

#: Short components, and ones long enough to need a three-byte TLV-LENGTH.
components = st.one_of(
    st.binary(min_size=1, max_size=6),
    st.binary(min_size=253, max_size=300),
)
part_lists = st.lists(components, min_size=0, max_size=5)


def canonical_key(name: Name) -> list:
    """NDN canonical order, component by component: shorter first, then bytewise."""
    return [(len(component.value), component.value) for component in name]


def interest_wire(name_value: bytes) -> bytes:
    """An Interest whose Name TLV carries ``name_value`` verbatim."""
    body = encode_tlv(TlvTypes.NAME, name_value)
    body += encode_tlv(TlvTypes.NONCE, b"\x00\x00\x00\x01")
    body += encode_tlv(TlvTypes.HOP_LIMIT, b"\x10")
    return encode_tlv(TlvTypes.INTEREST, body)


class TestEveryConstructorBuildsTheSameBytes:
    @given(parts=part_lists, extra=part_lists, other=part_lists)
    def test_uri_parts_derivations_and_the_wire_agree(self, parts, extra, other):
        name = Name(parts)
        built = [
            Name(name.to_uri()),
            Name().append(*parts),
            Name(parts[:1]).append(Name(parts[1:])),
            Name(parts + extra).prefix(len(parts)),
            Name(extra + parts).suffix(len(extra)),
            Name(extra + parts)[len(extra):],
            Name(parts + [b"tail"]).parent(),
            Name(name),
            WirePacket(Interest(name=name).encode()).name,
            Interest.decode(Interest(name=name).encode()).name,
            Name.from_wire(encode_name_value(name)),
        ]
        reference = Name(other)
        for twin in built:
            assert twin == name and encode_name_value(twin) == encode_name_value(name)
            assert hash(twin) == hash(name) == hash(encode_name_value(name))
            assert str(twin) == str(name)
            assert len(twin) == len(name) and list(twin) == list(name)
            assert (twin < reference) == (name < reference)
            assert (reference < twin) == (reference < name)
        assert (name < reference) == (canonical_key(name) < canonical_key(reference))
        assert name.is_prefix_of(reference) == (
            canonical_key(reference)[:len(name)] == canonical_key(name))

    @pytest.mark.parametrize("size", [252, 253, 0xFFFF, 0x10000])
    def test_every_length_width_round_trips(self, size):
        name = Name([b"a", b"x" * size, b"b"])
        assert WirePacket(Interest(name=name).encode()).name == name
        assert Name(name.to_uri()) == name
        assert name[1].value == b"x" * size and name.last().value == b"b"
        assert name.prefix(2).append("b") == name


class TestNonMinimalNamesAreRejected:
    @given(parts=st.lists(components, min_size=1, max_size=4), data=st.data())
    def test_a_non_minimal_type_or_length_raises(self, parts, data):
        index = data.draw(st.integers(min_value=0, max_value=len(parts) - 1))
        value = parts[index]
        length = len(value)
        widened_lengths = [b"\xfe" + length.to_bytes(4, "big"),
                           b"\xff" + length.to_bytes(8, "big")]
        if length < 253:
            widened_lengths.append(b"\xfd" + length.to_bytes(2, "big"))
        length_field = encode_tlv(0, value)[1:-length]
        header = data.draw(st.sampled_from(
            [b"\xfd\x00\x08" + length_field] + [b"\x08" + wide for wide in widened_lengths]
        ))
        tlvs = [encode_tlv(TlvTypes.GENERIC_NAME_COMPONENT, part) for part in parts]
        tlvs[index] = header + value
        wire = interest_wire(b"".join(tlvs))
        with pytest.raises(TLVDecodeError):
            Interest.decode(wire)
        with pytest.raises(TLVDecodeError):
            WirePacket(wire).name

    def test_the_minimal_form_of_the_same_name_parses(self):
        wire = interest_wire(encode_tlv(TlvTypes.GENERIC_NAME_COMPONENT, b"abcde"))
        assert Interest.decode(wire).name == Name("/abcde")
        with pytest.raises(TLVDecodeError):
            Interest.decode(interest_wire(b"\x08\xfd\x00\x05abcde"))


class TestNameTreeOrder:
    @given(names=st.lists(part_lists.map(Name), max_size=12))
    def test_a_walk_visits_names_in_sorted_order(self, names):
        tree = NameTree()
        for index, name in enumerate(names):
            tree.setdefault(name, lambda _name, index=index: index)
        walked = [name for name, _value in tree.items()]
        assert walked == sorted(set(names))
        assert walked == sorted(set(names), key=canonical_key)


def _outcome(decode, buffer: bytes, offset: int):
    try:
        return decode(buffer, offset)
    except TLVDecodeError as error:
        return ("error", str(error))


class TestTlvHeaderFastPath:
    @given(buffer=st.binary(max_size=24), offset=st.integers(min_value=0, max_value=26))
    def test_equals_the_general_path_on_any_buffer(self, buffer, offset):
        assert _outcome(decode_tlv_header, buffer, offset) == _outcome(
            _decode_tlv_header, buffer, offset)

    @given(type_number=st.integers(min_value=0, max_value=70000),
           value=st.binary(max_size=300), data=st.data())
    def test_equals_the_general_path_on_truncated_blocks(self, type_number, value, data):
        block = encode_tlv(type_number, value)
        cut = data.draw(st.integers(min_value=0, max_value=len(block)))
        for buffer in (block, block[:cut], b"\x00" + block[:cut]):
            for offset in (0, 1):
                assert _outcome(decode_tlv_header, buffer, offset) == _outcome(
                    _decode_tlv_header, buffer, offset)
