"""Type–Length–Value wire encoding.

The NDN packet format encodes everything as nested TLV blocks.  This module
implements variable-length number encoding (per the NDN packet spec), the
TLV encoder, and the one decoding walk :mod:`repro.ndn.packet` uses: a
header decode plus :func:`scan_tlv_spans`, which locates a block's fields as
byte spans without copying them.  The encoder and the header decode handle
a one-byte type with a one-byte length inline, since nearly every header on
the wire is that; :class:`~repro.ndn.name.Name` builds and walks its
component TLVs with them too.

Type numbers follow the NDN packet format v0.3 where applicable; a few private
types (>= 1000) are used for simulation-only metadata.
"""

from __future__ import annotations

from repro.exceptions import TLVDecodeError

__all__ = [
    "TlvTypes",
    "encode_tlv",
    "decode_tlv_header",
    "scan_tlv_spans",
    "encode_nonneg_int",
    "decode_nonneg_int",
]


class TlvTypes:
    """TLV type numbers used by the packet codec."""

    INTEREST = 0x05
    DATA = 0x06
    NACK = 0x0320

    NAME = 0x07
    GENERIC_NAME_COMPONENT = 0x08

    CAN_BE_PREFIX = 0x21
    MUST_BE_FRESH = 0x12
    NONCE = 0x0A
    INTEREST_LIFETIME = 0x0C
    HOP_LIMIT = 0x22
    APPLICATION_PARAMETERS = 0x24

    META_INFO = 0x14
    CONTENT_TYPE = 0x18
    FRESHNESS_PERIOD = 0x19
    FINAL_BLOCK_ID = 0x1A
    CONTENT = 0x15

    SIGNATURE_INFO = 0x16
    SIGNATURE_TYPE = 0x1B
    SIGNATURE_VALUE = 0x17

    NACK_REASON = 0x0321

    # Private (simulation) range.
    SIM_SOURCE = 0x03F0
    SIM_TAG = 0x03F1


def _encode_var_number(value: int) -> bytes:
    """Encode a non-negative integer as an NDN variable-length number."""
    if value < 0:
        raise TLVDecodeError(f"cannot encode negative number {value}")
    if value < 253:
        return bytes([value])
    if value <= 0xFFFF:
        return bytes([253]) + value.to_bytes(2, "big")
    if value <= 0xFFFFFFFF:
        return bytes([254]) + value.to_bytes(4, "big")
    return bytes([255]) + value.to_bytes(8, "big")


def _decode_var_number(buffer: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a variable-length number; returns ``(value, next_offset)``."""
    if offset >= len(buffer):
        raise TLVDecodeError("truncated TLV: missing number")
    first = buffer[offset]
    if first < 253:
        return first, offset + 1
    if first == 253:
        width = 2
    elif first == 254:
        width = 4
    else:
        width = 8
    end = offset + 1 + width
    if end > len(buffer):
        raise TLVDecodeError("truncated TLV: number extends past buffer")
    return int.from_bytes(buffer[offset + 1:end], "big"), end


def encode_tlv(type_number: int, value: bytes) -> bytes:
    """Encode a single TLV block (a one-byte type and length built inline)."""
    length = len(value)
    if 0 <= type_number < 253 and length < 253:
        return bytes((type_number, length)) + value
    return _encode_var_number(type_number) + _encode_var_number(length) + value


def decode_tlv_header(buffer: bytes, offset: int = 0) -> tuple[int, int, int]:
    """Decode a TLV header only; returns ``(type, value_start, value_end)``.

    The value is never sliced out of ``buffer``: callers take the bytes they
    need from the offsets, so a scan over a packet's fields copies nothing.
    A one-byte TLV-TYPE with a one-byte TLV-LENGTH, the header of nearly
    every field and name component, is read inline; anything else, and
    every error, goes through :func:`_decode_tlv_header`.
    """
    size = len(buffer)
    if offset + 1 < size:
        type_number = buffer[offset]
        length = buffer[offset + 1]
        end = offset + 2 + length
        if type_number < 253 and length < 253 and end <= size:
            return type_number, offset + 2, end
    return _decode_tlv_header(buffer, offset)


def _decode_tlv_header(buffer: bytes, offset: int) -> tuple[int, int, int]:
    """:func:`decode_tlv_header` for any header width, and its errors."""
    type_number, offset = _decode_var_number(buffer, offset)
    length, offset = _decode_var_number(buffer, offset)
    end = offset + length
    if end > len(buffer):
        raise TLVDecodeError(
            f"truncated TLV: type={type_number} wants {length} bytes, "
            f"only {len(buffer) - offset} available"
        )
    return type_number, offset, end


def scan_tlv_spans(buffer: bytes, start: int, end: int) -> dict[int, tuple[int, int, int]]:
    """Shallow-walk the TLV blocks in ``buffer[start:end]`` without copying.

    Returns ``{type: (block_start, value_start, value_end)}`` for the first
    occurrence of each type.  This is the one walk over a packet's fields:
    the lazy :class:`~repro.ndn.packet.WirePacket` view and the object
    decoders both read every field from it, so a forwarder in transit and
    the endpoint always see the same value.
    """
    spans: dict[int, tuple[int, int, int]] = {}
    offset = start
    while offset < end:
        block_start = offset
        type_number, value_start, value_end = decode_tlv_header(buffer, offset)
        if value_end > end:
            raise TLVDecodeError(f"TLV type={type_number} extends past its enclosing block")
        if type_number not in spans:
            spans[type_number] = (block_start, value_start, value_end)
        offset = value_end
    return spans


def encode_nonneg_int(value: int) -> bytes:
    """Encode a non-negative integer in the shortest 1/2/4/8-byte big-endian form."""
    if value < 0:
        raise TLVDecodeError(f"cannot encode negative integer {value}")
    for width in (1, 2, 4, 8):
        if value < (1 << (8 * width)):
            return value.to_bytes(width, "big")
    raise TLVDecodeError(f"integer too large to encode: {value}")


def decode_nonneg_int(value: bytes) -> int:
    """Decode a 1/2/4/8-byte big-endian non-negative integer."""
    if len(value) not in (1, 2, 4, 8):
        raise TLVDecodeError(f"invalid integer width {len(value)}")
    return int.from_bytes(value, "big")
