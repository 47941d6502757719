"""Type–Length–Value wire encoding.

The NDN packet format encodes everything as nested TLV blocks.  This module
implements variable-length number encoding (per the NDN packet spec) plus an
encoder/decoder used by :mod:`repro.ndn.packet`.

Type numbers follow the NDN packet format v0.3 where applicable; a few private
types (>= 1000) are used for simulation-only metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import TLVDecodeError

__all__ = [
    "TlvTypes",
    "encode_tlv",
    "decode_tlv",
    "decode_tlv_header",
    "decode_all",
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
    KEY_LOCATOR = 0x1C
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
    """Encode a single TLV block."""
    return _encode_var_number(type_number) + _encode_var_number(len(value)) + value


def decode_tlv(buffer: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Decode one TLV block; returns ``(type, value, next_offset)``."""
    type_number, value_start, value_end = decode_tlv_header(buffer, offset)
    return type_number, buffer[value_start:value_end], value_end


def decode_tlv_header(buffer: bytes, offset: int = 0) -> tuple[int, int, int]:
    """Decode a TLV header only; returns ``(type, value_start, value_end)``.

    Unlike :func:`decode_tlv` this never slices the value out of ``buffer``,
    so callers that only need offsets (the zero-copy
    :class:`~repro.ndn.packet.WirePacket` field scan) pay no copies.
    """
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
    occurrence of each type — exactly what a lazy packet view needs to answer
    header-field questions (name, nonce, freshness, ...) straight off the
    wire buffer.
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


@dataclass(frozen=True)
class _TlvBlock:
    """A decoded TLV block."""

    type: int
    value: bytes


def decode_all(buffer: bytes) -> Iterator[_TlvBlock]:
    """Decode a concatenation of TLV blocks."""
    offset = 0
    while offset < len(buffer):
        type_number, value, offset = decode_tlv(buffer, offset)
        yield _TlvBlock(type_number, value)


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
