"""Wire round-trip and WirePacket lazy-view tests.

Property-based encode → decode → encode identity for every packet type, plus
equivalence of the lazy :class:`~repro.ndn.packet.WirePacket` fields against
a full decode, and the decode-counter instrumentation the wire-path
benchmark relies on.  A Nack exists only as a view, so its oracle is the
full decode of its enclosed Interest plus the integer in its reason field.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import TLVDecodeError
from repro.ndn.face import LocalFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import (
    Data,
    Interest,
    NackReason,
    WirePacket,
    encode_name_value,
)
from repro.ndn.pit import PendingInterestTable
from repro.ndn.tlv import (
    TlvTypes,
    decode_nonneg_int,
    decode_tlv_header,
    encode_nonneg_int,
    encode_tlv,
    scan_tlv_spans,
)
from repro.sim.engine import Environment

# -- strategies ---------------------------------------------------------------

component = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
names = st.lists(component, min_size=1, max_size=6).map(Name)

interests = st.builds(
    Interest,
    name=names,
    can_be_prefix=st.booleans(),
    must_be_fresh=st.booleans(),
    nonce=st.integers(min_value=0, max_value=2**32 - 1),
    lifetime=st.floats(min_value=0.001, max_value=3600.0, allow_nan=False),
    hop_limit=st.integers(min_value=0, max_value=255),
    application_parameters=st.binary(max_size=64),
)

datas = st.builds(
    Data,
    name=names,
    content=st.binary(max_size=256),
    freshness_period=st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
)


def assert_ms_equal(left: float, right: float) -> None:
    """Durations survive the codec at millisecond granularity."""
    assert abs(left - right) < 0.002


# -- encode → decode → encode identity ----------------------------------------


class TestWireRoundTrips:
    @given(interest=interests)
    def test_interest_round_trip_identity(self, interest):
        wire = interest.encode()
        decoded = Interest.decode(wire)
        assert decoded.name == interest.name
        assert decoded.can_be_prefix == interest.can_be_prefix
        assert decoded.must_be_fresh == interest.must_be_fresh
        assert decoded.nonce == interest.nonce
        assert decoded.hop_limit == interest.hop_limit
        assert decoded.application_parameters == interest.application_parameters
        assert_ms_equal(decoded.lifetime, interest.lifetime)
        assert decoded.encode() == wire

    @given(data=datas)
    def test_data_round_trip_identity(self, data):
        wire = data.encode()  # computes the DigestSha256 signature on first encode
        decoded = Data.decode(wire)
        assert decoded.name == data.name
        assert decoded.content == data.content
        assert_ms_equal(decoded.freshness_period, data.freshness_period)
        assert decoded.signature_value == data.signature_value
        assert decoded.verify()
        assert decoded.encode() == wire

    @given(interest=interests, reason=st.sampled_from(
        [NackReason.NONE, NackReason.CONGESTION, NackReason.DUPLICATE, NackReason.NO_ROUTE]
    ))
    def test_nack_round_trip_identity(self, interest, reason):
        wire = WirePacket(interest.encode()).nack(reason).wire
        decoded = WirePacket(wire)
        assert decoded.reason == reason
        assert decoded.interest.name == interest.name
        assert decoded.interest.nonce == interest.nonce
        assert WirePacket(decoded.interest.wire).nack(decoded.reason).wire == wire


# -- lazy-field equivalence against full decode --------------------------------


class TestWirePacketLazyFields:
    @given(interest=interests)
    def test_interest_view_matches_full_decode(self, interest):
        wire = interest.encode()
        view = WirePacket(wire)  # wire-only: no attached object
        full = Interest.decode(wire)
        assert view.packet_type == TlvTypes.INTEREST
        assert view.is_interest and not view.is_data
        assert view.name == full.name
        assert view.can_be_prefix == full.can_be_prefix
        assert view.must_be_fresh == full.must_be_fresh
        assert view.nonce == full.nonce
        assert view.hop_limit == full.hop_limit
        assert view.application_parameters == full.application_parameters
        assert_ms_equal(view.lifetime, full.lifetime)
        assert view.size == len(wire)
        assert view.wire == wire

    @given(data=datas)
    def test_data_view_matches_full_decode(self, data):
        wire = data.encode()
        view = WirePacket(wire)
        full = Data.decode(wire)
        assert view.packet_type == TlvTypes.DATA
        assert view.name == full.name
        assert_ms_equal(view.freshness_period, full.freshness_period)

    @given(interest=interests, reason=st.integers(min_value=0, max_value=200))
    def test_nack_view_matches_full_decode(self, interest, reason):
        wire = WirePacket(interest.encode()).nack(reason).wire
        view = WirePacket(wire)
        full_reason, full = _nack_oracle(wire)
        assert view.packet_type == TlvTypes.NACK
        assert view.reason == full_reason == reason
        assert view.name == full.name
        enclosed = view.interest
        assert enclosed.name == full.name
        assert enclosed.nonce == full.nonce
        assert enclosed.wire == full.encode()

    @given(interest=interests)
    def test_matches_data_equivalence(self, interest):
        # The PIT matches in transit what the Interest object matches at the
        # endpoint.
        view = WirePacket(interest.encode())
        pit = PendingInterestTable()
        entry, _is_new = pit.insert(view, 1)
        exact = Data(name=interest.name, content=b"x")
        longer = Data(name=interest.name.append("more"), content=b"x")
        for data in (exact, longer):
            assert entry.matches_data(WirePacket(data.encode())) == interest.matches_data(data)


# -- WirePacket behaviour ------------------------------------------------------


class TestWirePacketBehaviour:
    def test_of_keeps_object_and_decode_is_free(self):
        interest = Interest(name=Name("/a/b"))
        view = WirePacket.of(interest)
        before = WirePacket.wire_decodes
        assert view.decode() is interest
        assert WirePacket.wire_decodes == before  # cached object: not a decode
        assert view.wire == interest.encode()

    def test_send_wraps_an_object_and_passes_a_view_through(self):
        env = Environment()
        sink = _Sink()
        face, _peer = connect(env, _Sink(), sink, face_cls=LocalFace)
        view = WirePacket(Interest(name=Name("/a")).encode())
        interest = Interest(name=Name("/b"))
        face.send(view)
        face.send(interest)
        assert sink.received[0] is view
        assert sink.received[1].decode() is interest

    def test_wire_decode_counts_once(self):
        wire = Data(name=Name("/d"), content=b"z").encode()
        view = WirePacket(wire)
        before = WirePacket.wire_decodes
        first = view.decode()
        second = view.decode()
        assert first is second
        assert WirePacket.wire_decodes == before + 1

    def test_decoded_object_retransmits_without_reencode(self):
        wire = Data(name=Name("/d"), content=b"z").encode()
        decoded = WirePacket(wire).decode()
        assert decoded.encode() is wire  # buffer handed over, not re-built

    def test_wire_decodes_counts_only_decodes_that_parse(self):
        before = WirePacket.wire_decodes
        view = WirePacket(Interest(name=Name("/h")).encode())
        view.decode()
        view.decode()
        WirePacket.of(Interest(name=Name("/h2"))).decode()
        assert WirePacket.wire_decodes == before + 1

    def test_with_decremented_hop_limit_patches_wire(self):
        interest = Interest(name=Name("/hop/test"), hop_limit=7)
        view = WirePacket(interest.encode())
        before = WirePacket.wire_decodes
        forwarded = view.with_decremented_hop_limit()
        assert WirePacket.wire_decodes == before  # byte patch, no decode
        assert forwarded.hop_limit == 6
        assert forwarded.nonce == interest.nonce
        assert forwarded.name == interest.name
        # The patched buffer is a valid Interest identical modulo hop limit.
        reparsed = Interest.decode(forwarded.wire)
        assert reparsed.hop_limit == 6
        assert reparsed.name == interest.name
        assert reparsed.application_parameters == interest.application_parameters

    def test_with_decremented_hop_limit_leaves_the_original_wire_untouched(self):
        view = WirePacket(Interest(name=Name("/hop/keep"), hop_limit=7).encode())
        original = bytes(view.wire)
        forwarded = view.with_decremented_hop_limit()
        # The patch goes into a copy: the received buffer may already be
        # cached or queued on another face, so it must not change.
        assert type(view.wire) is bytes and type(forwarded.wire) is bytes
        assert view.wire == original and view.hop_limit == 7
        assert forwarded.wire != original

    def test_hop_limit_decrement_saturates_at_zero(self):
        view = WirePacket(Interest(name=Name("/z"), hop_limit=0).encode())
        assert view.with_decremented_hop_limit().hop_limit == 0

    def test_nack_from_view_is_reason_then_enclosed_interest(self):
        interest = Interest(name=Name("/n"), nonce=0x1234)
        view = WirePacket(interest.encode())
        wire_nack = view.nack(NackReason.CONGESTION)
        assert wire_nack.wire == encode_tlv(
            TlvTypes.NACK,
            encode_tlv(TlvTypes.NACK_REASON, encode_nonneg_int(NackReason.CONGESTION))
            + interest.encode(),
        )
        assert wire_nack.reason == NackReason.CONGESTION
        assert wire_nack.interest is view

    def test_view_nack_helper(self):
        view = WirePacket(Interest(name=Name("/n")).encode())
        nack = view.nack(NackReason.NO_ROUTE)
        assert nack.packet_type == TlvTypes.NACK
        assert nack.reason == NackReason.NO_ROUTE
        assert nack.interest is view
        assert nack.name == view.name
        with pytest.raises(TLVDecodeError):
            nack.decode()  # a Nack has no object form

    def test_type_mismatch_raises(self):
        data_view = WirePacket(Data(name=Name("/d")).encode())
        with pytest.raises(TLVDecodeError):
            data_view.nonce
        interest_view = WirePacket(Interest(name=Name("/i")).encode())
        with pytest.raises(TLVDecodeError):
            interest_view.freshness_period
        with pytest.raises(TLVDecodeError):
            interest_view.interest

    def test_name_component_overrunning_name_tlv_raises(self):
        from repro.ndn.tlv import encode_tlv
        # A Name whose final component claims 4 value bytes while only 1
        # remains inside the Name TLV; the following Nonce TLV keeps the
        # overrun inside the packet buffer.  The lazy view must reject it
        # exactly like the full decoder, not absorb the neighbouring TLV.
        bad_name_value = bytes([0x08, 0x01, ord("a"), 0x08, 0x04, ord("b")])
        wire = encode_tlv(
            TlvTypes.INTEREST,
            encode_tlv(TlvTypes.NAME, bad_name_value)
            + encode_tlv(TlvTypes.NONCE, b"\x00\x00\x00\x01"),
        )
        with pytest.raises(TLVDecodeError):
            WirePacket(wire).name
        with pytest.raises(TLVDecodeError):
            Interest.decode(wire)

    def test_garbage_wire_raises_at_construction(self):
        with pytest.raises(TLVDecodeError):
            WirePacket(b"\x05\xff")  # truncated length
        with pytest.raises(TLVDecodeError):
            WirePacket(b"")
        with pytest.raises(TLVDecodeError):
            WirePacket(bytes([0x05, 10, 0, 0]))  # value overruns the buffer
        with pytest.raises(TLVDecodeError):
            WirePacket(bytes([0x05, 2, 0, 0]), _end=3)  # value overruns the view
        with pytest.raises(TLVDecodeError):
            WirePacket(bytes([0x99, 2, 0, 0])).decode()  # unknown packet type

    def test_enclosed_interest_view_shares_buffer(self):
        interest = Interest(name=Name("/shared/buffer"))
        nack_wire = WirePacket(interest.encode()).nack(NackReason.DUPLICATE).wire
        view = WirePacket(nack_wire)
        enclosed = view.interest
        # Lazily-parsed fields come straight out of the nack's buffer ...
        assert enclosed.name == interest.name
        assert enclosed.nonce == interest.nonce
        # ... and materialising the sliced wire yields the exact sub-buffer.
        assert enclosed.wire in nack_wire


# -- one parser per field: transit and endpoint read the same packet ------------

_T = TlvTypes
#: A type no codec knows: decoders and views must both skip it.
_UNKNOWN_TYPE = 0xFD

_FIELD_TYPES = {
    _T.INTEREST: (
        _T.NAME, _T.CAN_BE_PREFIX, _T.MUST_BE_FRESH, _T.NONCE,
        _T.INTEREST_LIFETIME, _T.HOP_LIMIT, _T.APPLICATION_PARAMETERS,
    ),
    _T.DATA: (
        _T.NAME, _T.CONTENT_TYPE, _T.FRESHNESS_PERIOD, _T.FINAL_BLOCK_ID,
        _T.CONTENT, _T.SIGNATURE_INFO, _T.SIGNATURE_VALUE,
    ),
    _T.NACK: (_T.NACK_REASON, _T.INTEREST),
}

_ints = st.integers(min_value=0, max_value=2**40).map(encode_nonneg_int)


def _signature_info(signature_type: int) -> bytes:
    return encode_tlv(_T.SIGNATURE_TYPE, encode_nonneg_int(signature_type))


def _well_formed(type_number: int):
    """A value of the right shape for ``type_number`` (SignatureType 4 included)."""
    if type_number == _T.NAME:
        return names.map(encode_name_value)
    if type_number == _T.NONCE:
        return st.binary(min_size=4, max_size=4)
    if type_number == _T.HOP_LIMIT:
        return st.binary(min_size=1, max_size=1)
    if type_number == _T.SIGNATURE_INFO:
        return st.sampled_from([0, 4]).map(_signature_info)
    if type_number == _T.INTEREST:
        return _bodies(_T.INTEREST)
    if type_number in (_T.INTEREST_LIFETIME, _T.FRESHNESS_PERIOD,
                       _T.CONTENT_TYPE, _T.NACK_REASON):
        return _ints
    return st.binary(max_size=8)


def _fields_of(packet_type: int):
    """One top-level field: well formed, or empty / odd-width bytes."""
    return st.sampled_from(_FIELD_TYPES[packet_type] + (_UNKNOWN_TYPE,)).flatmap(
        lambda type_number: st.one_of(
            _well_formed(type_number), st.binary(max_size=9)
        ).map(lambda value: encode_tlv(type_number, value))
    )


def _bodies(packet_type: int):
    """A packet body: its required fields plus extras, repeats allowed, shuffled."""
    required = {
        _T.INTEREST: (_T.NAME,),
        _T.DATA: (_T.NAME, _T.SIGNATURE_INFO),
        _T.NACK: (_T.INTEREST,),
    }[packet_type]
    base = st.tuples(*(
        _well_formed(t).map(lambda value, t=t: encode_tlv(t, value)) for t in required
    ))
    extras = st.lists(_fields_of(packet_type), max_size=6)
    return st.tuples(base, extras).flatmap(
        lambda parts: st.permutations(list(parts[0]) + parts[1])
    ).map(b"".join)


_packets = st.sampled_from(sorted(_FIELD_TYPES)).flatmap(
    lambda packet_type: _bodies(packet_type).map(
        lambda body: encode_tlv(packet_type, body)
    )
)

def _nack_oracle(wire: bytes) -> tuple:
    """A Nack read without a view: the integer in its reason span (NONE when
    absent) and ``Interest.decode`` of its enclosed Interest's span."""
    _type, body_start, body_end = decode_tlv_header(wire)
    spans = scan_tlv_spans(wire, body_start, body_end)
    enclosed = spans.get(_T.INTEREST)
    if enclosed is None:
        raise TLVDecodeError("Nack without an enclosed Interest")
    reason = spans.get(_T.NACK_REASON)
    return (
        NackReason.NONE if reason is None else decode_nonneg_int(wire[reason[1]:reason[2]]),
        Interest.decode(wire[enclosed[0]:enclosed[2]]),
    )


_DECODERS = {_T.INTEREST: Interest.decode, _T.DATA: Data.decode, _T.NACK: _nack_oracle}


def _assert_interest_view_equals(view: WirePacket, decoded: Interest) -> None:
    assert view.name == decoded.name
    assert view.can_be_prefix == decoded.can_be_prefix
    assert view.must_be_fresh == decoded.must_be_fresh
    assert view.nonce == decoded.nonce
    assert view.lifetime == decoded.lifetime
    assert view.hop_limit == decoded.hop_limit
    assert view.application_parameters == decoded.application_parameters


class TestOneParserPerField:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(wire=_packets)
    def test_view_and_decoder_agree_on_every_field(self, wire):
        view = WirePacket(wire)
        try:
            decoded = _DECODERS[view.packet_type](wire)
        except TLVDecodeError:
            return  # a typed rejection; anything else fails the test
        if view.is_interest:
            _assert_interest_view_equals(view, decoded)
        elif view.is_data:
            assert view.name == decoded.name
            assert view.freshness_period == decoded.freshness_period
        else:
            reason, enclosed = decoded
            assert view.reason == reason
            assert view.name == enclosed.name
            _assert_interest_view_equals(view.interest, enclosed)

    # Regressions: each case made the endpoint decoder and the transit view
    # read one packet differently, or made the decoder raise an untyped error.

    def test_zero_byte_hop_limit_is_a_typed_error(self):
        wire = _interest(encode_tlv(_T.HOP_LIMIT, b""))
        with pytest.raises(TLVDecodeError):
            Interest.decode(wire)
        with pytest.raises(TLVDecodeError):
            WirePacket(wire).hop_limit

    def test_two_byte_hop_limit_is_rejected_at_the_endpoint_as_in_transit(self):
        wire = _interest(encode_tlv(_T.HOP_LIMIT, b"\x05\x06"))
        with pytest.raises(TLVDecodeError):
            WirePacket(wire).hop_limit
        with pytest.raises(TLVDecodeError):
            Interest.decode(wire)

    def test_a_nonce_of_other_than_four_bytes_is_a_typed_error(self):
        # A 5-byte nonce used to decode to a value that Interest.encode
        # cannot write back (an OverflowError, not a typed error).
        wire = _interest(encode_tlv(_T.NONCE, b"\x01\x02\x03\x04\x05"))
        with pytest.raises(TLVDecodeError):
            WirePacket(wire).nonce
        with pytest.raises(TLVDecodeError):
            Interest.decode(wire)

    def test_an_empty_name_component_or_final_block_id_is_a_typed_error(self):
        empty_component = encode_tlv(_T.INTEREST, encode_tlv(_T.NAME, b"\x08\x00"))
        with pytest.raises(TLVDecodeError):
            WirePacket(empty_component).name
        with pytest.raises(TLVDecodeError):
            Interest.decode(empty_component)
        empty_final_block = encode_tlv(
            _T.DATA,
            _name_tlv("/a") + encode_tlv(_T.FINAL_BLOCK_ID, b"")
            + encode_tlv(_T.SIGNATURE_INFO, _signature_info(0)),
        )
        with pytest.raises(TLVDecodeError):
            Data.decode(empty_final_block)

    def test_data_with_two_names_is_its_first_name_in_transit_and_at_the_endpoint(self):
        wire = encode_tlv(
            _T.DATA,
            _name_tlv("/a") + _name_tlv("/b") + encode_tlv(_T.SIGNATURE_INFO, _signature_info(0)),
        )
        assert WirePacket(wire).name == Name("/a")
        assert Data.decode(wire).name == Name("/a")

    def test_zero_ms_lifetime_is_a_typed_error_at_the_endpoint(self):
        wire = _interest(encode_tlv(_T.INTEREST_LIFETIME, b"\x00"))
        with pytest.raises(TLVDecodeError):
            Interest.decode(wire)
        assert WirePacket(wire).lifetime == 0.0  # transit reads the field as before


def _name_tlv(uri: str) -> bytes:
    return encode_tlv(_T.NAME, encode_name_value(Name(uri)))


def _interest(*fields: bytes) -> bytes:
    """An Interest for ``/a`` carrying ``fields`` after its Name."""
    return encode_tlv(_T.INTEREST, _name_tlv("/a") + b"".join(fields))


class _Sink:
    """An endpoint that keeps every packet delivered to it."""

    def __init__(self) -> None:
        self.received: list = []

    def add_face(self, face) -> int:
        return 0

    def receive_packet(self, packet, face) -> None:
        self.received.append(packet)


class TestHopLimitlessInterestInTransit:
    def test_crosses_two_forwarders_byte_identical_and_undecoded(self):
        # NFD decrements a HopLimit only where one is present, so an
        # Interest encoded without one reaches the producer as sent.
        env = Environment()
        edge, core = Forwarder(env, name="edge"), Forwarder(env, name="core")
        upstream, _ = connect(env, edge, core)
        edge.register_prefix("/a", upstream)
        received = []
        core.attach_producer("/a", received.append)
        face, _ = connect(env, _Sink(), edge, face_cls=LocalFace)
        wire = _interest(encode_tlv(_T.NONCE, b"\x00\x00\x00\x09"))
        assert TlvTypes.HOP_LIMIT not in scan_tlv_spans(wire, 2, len(wire))
        before = WirePacket.wire_decodes
        face.send(WirePacket(wire))
        env.run()
        assert [packet.wire for packet in received] == [wire]
        assert WirePacket.wire_decodes == before
