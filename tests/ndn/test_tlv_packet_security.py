"""Tests for TLV encoding, packet wire formats and the DigestSha256 signature."""

import pytest
from hypothesis import example, given, strategies as st

from repro.exceptions import TLVDecodeError, VerificationError
from repro.ndn.name import Component, Name
from repro.ndn.packet import _ContentType, Data, Interest, NackReason, WirePacket
from repro.ndn.tlv import (
    TlvTypes,
    decode_nonneg_int,
    decode_tlv_header,
    _decode_var_number,
    encode_nonneg_int,
    encode_tlv,
    _encode_var_number,
    scan_tlv_spans,
)


class TestVarNumbers:
    @pytest.mark.parametrize("value,expected_len", [(0, 1), (252, 1), (253, 3), (65535, 3), (65536, 5), (2**32, 9)])
    def test_encoding_width(self, value, expected_len):
        assert len(_encode_var_number(value)) == expected_len

    def test_round_trip(self):
        for value in (0, 1, 252, 253, 1000, 2**16, 2**32 - 1, 2**40):
            encoded = _encode_var_number(value)
            decoded, offset = _decode_var_number(encoded)
            assert decoded == value
            assert offset == len(encoded)

    def test_negative_rejected(self):
        with pytest.raises(TLVDecodeError):
            _encode_var_number(-1)

    def test_truncated_number_raises(self):
        with pytest.raises(TLVDecodeError):
            _decode_var_number(b"")
        with pytest.raises(TLVDecodeError):
            _decode_var_number(bytes([253, 0x01]))  # needs 2 more bytes


class TestTlvBlocks:
    def test_round_trip(self):
        wire = encode_tlv(0x08, b"hello")
        type_number, value_start, value_end = decode_tlv_header(wire)
        assert type_number == 0x08
        assert wire[value_start:value_end] == b"hello"
        assert value_end == len(wire)

    def test_truncated_value_raises(self):
        wire = encode_tlv(0x08, b"hello")[:-2]
        with pytest.raises(TLVDecodeError):
            decode_tlv_header(wire)

    def test_scan_tlv_spans_keeps_the_first_occurrence(self):
        wire = encode_tlv(1, b"a") + encode_tlv(2, b"bb") + encode_tlv(1, b"ccc")
        spans = scan_tlv_spans(wire, 0, len(wire))
        assert {t: wire[s[1]:s[2]] for t, s in spans.items()} == {1: b"a", 2: b"bb"}
        assert spans[1][0] == 0

    def test_nonneg_int_round_trip(self):
        for value in (0, 255, 256, 65535, 2**31, 2**63):
            assert decode_nonneg_int(encode_nonneg_int(value)) == value

    def test_nonneg_int_bad_width(self):
        with pytest.raises(TLVDecodeError):
            decode_nonneg_int(b"\x01\x02\x03")

    @given(type_number=st.integers(min_value=1, max_value=2**20),
           payload=st.binary(max_size=300))
    def test_tlv_round_trip_property(self, type_number, payload):
        wire = encode_tlv(type_number, payload)
        type_decoded, value_start, value_end = decode_tlv_header(wire)
        assert type_decoded == type_number
        assert wire[value_start:value_end] == payload


class TestInterestWire:
    def test_round_trip_all_fields(self):
        interest = Interest(
            name=Name("/ndn/k8s/compute/app=BLAST"),
            can_be_prefix=True,
            must_be_fresh=True,
            lifetime=2.5,
            hop_limit=12,
            application_parameters=b"params",
        )
        decoded = Interest.decode(interest.encode())
        assert decoded.name == interest.name
        assert decoded.can_be_prefix and decoded.must_be_fresh
        assert decoded.lifetime == pytest.approx(2.5)
        assert decoded.hop_limit == 12
        assert decoded.nonce == interest.nonce
        assert decoded.application_parameters == b"params"

    def test_decode_rejects_non_interest(self):
        data = Data(name=Name("/a"), content=b"x")
        with pytest.raises(TLVDecodeError):
            Interest.decode(data.encode())

    def test_invalid_lifetime_rejected(self):
        with pytest.raises(ValueError):
            Interest(name=Name("/a"), lifetime=0)

    def test_invalid_hop_limit_rejected(self):
        with pytest.raises(ValueError):
            Interest(name=Name("/a"), hop_limit=300)

    def test_hop_limit_decrement(self):
        view = WirePacket(Interest(name=Name("/a"), hop_limit=2).encode())
        assert view.with_decremented_hop_limit().hop_limit == 1
        assert view.hop_limit == 2  # original untouched

    def test_exact_match_semantics(self):
        interest = Interest(name=Name("/a/b"))
        assert interest.matches_data(Data(name=Name("/a/b")))
        assert not interest.matches_data(Data(name=Name("/a/b/c")))

    def test_prefix_match_semantics(self):
        interest = Interest(name=Name("/a"), can_be_prefix=True)
        assert interest.matches_data(Data(name=Name("/a/b/c")))
        assert not interest.matches_data(Data(name=Name("/b")))

    def test_size_is_wire_length(self):
        interest = Interest(name=Name("/abc"))
        assert interest.size == len(interest.encode())

    def test_name_string_coerced(self):
        assert Interest(name="/a/b").name == Name("/a/b")


class TestDataWire:
    def test_round_trip(self):
        data = Data(
            name=Name("/ndn/k8s/data/sample"),
            content=b"payload-bytes",
            content_type=_ContentType.BLOB,
            freshness_period=30.0,
            final_block_id=Component("seg=9"),
        )
        decoded = Data.decode(data.encode())
        assert decoded.name == data.name
        assert decoded.content == b"payload-bytes"
        assert decoded.freshness_period == pytest.approx(30.0)
        assert decoded.final_block_id == Component("seg=9")
        assert decoded.verify()

    def test_string_content_encoded_utf8(self):
        assert Data(name=Name("/a"), content="héllo").content == "héllo".encode("utf-8")

    def test_content_text_helper(self):
        assert Data(name=Name("/a"), content=b'{"x": 1}').content_text() == '{"x": 1}'

    def test_encode_signs_automatically(self):
        data = Data(name=Name("/a"), content=b"x")
        assert data.signature_value == b""
        data.encode()
        assert len(data.signature_value) == 32
        assert data.verify()

    def test_verify_unsigned_raises(self):
        with pytest.raises(VerificationError):
            Data(name=Name("/a")).verify()

    def test_tampered_content_fails_verification(self):
        data = Data(name=Name("/a"), content=b"original")
        data.encode()
        data.content = b"tampered"
        assert data.verify() is False

    def test_decode_rejects_a_signature_type_other_than_digest_sha256(self):
        data = Data(name=Name("/a"), content=b"x")
        hmac_info = encode_tlv(TlvTypes.SIGNATURE_TYPE, encode_nonneg_int(4))
        wire = encode_tlv(
            TlvTypes.DATA,
            data._signed_portion()
            + encode_tlv(TlvTypes.SIGNATURE_INFO, hmac_info)
            + encode_tlv(TlvTypes.SIGNATURE_VALUE, b"\x00" * 32),
        )
        with pytest.raises(TLVDecodeError):
            Data.decode(wire)

    def test_decode_rejects_non_data(self):
        interest = Interest(name=Name("/a"))
        with pytest.raises(TLVDecodeError):
            Data.decode(interest.encode())

    @given(payload=st.binary(max_size=2000))
    @example(payload=b"x" * 8192)  # one data-lake segment
    def test_content_round_trip_property(self, payload):
        data = Data(name=Name("/x/y"), content=payload)
        assert Data.decode(data.encode()).content == payload


class TestNackWire:
    def test_round_trip(self):
        interest = Interest(name=Name("/a/b"))
        nack = WirePacket(interest.encode()).nack(NackReason.NO_ROUTE)
        decoded = WirePacket(nack.wire)
        assert decoded.name == interest.name
        assert decoded.reason == NackReason.NO_ROUTE
        assert decoded.interest.nonce == interest.nonce

    def test_reason_labels(self):
        assert NackReason.label(NackReason.CONGESTION) == "Congestion"
        assert "Unknown" in NackReason.label(999)

    def test_decode_rejects_non_nack(self):
        with pytest.raises(TLVDecodeError):
            WirePacket(Interest(name=Name("/a")).encode()).reason
