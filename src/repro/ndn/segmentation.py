"""Segmentation of large content objects into Data packets.

Genomics datasets and BLAST outputs are far larger than a single packet; the
data lake publishes them as a sequence of segments named
``<object>/seg=<index>`` with the final block id set on every segment, exactly
as NDN repos do.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.exceptions import NDNError
from repro.ndn.name import Component, Name
from repro.ndn.packet import Data

__all__ = ["segment_data", "segment_content", "reassemble", "parse_segment", "DEFAULT_SEGMENT_SIZE"]

#: Default segment payload size in bytes (mirrors common NDN repo settings).
DEFAULT_SEGMENT_SIZE = 8192


def segment_data(
    base_name: "Name | str",
    content: bytes,
    index: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    freshness_period: float = 0.0,
) -> Data:
    """Segment ``index`` of ``content`` as a Data packet under ``base_name``.

    This is the one segmentation rule: segment ``i`` is named
    ``<base>/seg=<i>`` and holds ``content[i*size:(i+1)*size]``, every
    segment carries ``seg=<last>`` as its final block id, and empty content
    is a single empty segment, so consumers always find ``seg=0``.  An
    index past the last segment raises :class:`NDNError`.
    """
    if segment_size <= 0:
        raise NDNError(f"segment size must be positive, got {segment_size}")
    base = Name(base_name)
    last = max(len(content) - 1, 0) // segment_size
    if not 0 <= index <= last:
        raise NDNError(f"segment {index} out of range for {base} (last is {last})")
    offset = index * segment_size
    return Data(
        name=base.append(f"seg={index}"),
        content=content[offset:offset + segment_size],
        freshness_period=freshness_period,
        final_block_id=Component(f"seg={last}"),
    )


def segment_content(
    base_name: "Name | str",
    content: bytes,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    freshness_period: float = 0.0,
) -> list[Data]:
    """Every segment :func:`segment_data` makes of ``content``, in order."""
    base = Name(base_name)
    first = segment_data(base, content, 0, segment_size, freshness_period)
    last = parse_segment(first.final_block_id.to_str())
    return [first] + [
        segment_data(base, content, index, segment_size, freshness_period)
        for index in range(1, last + 1)
    ]


def parse_segment(label: str) -> int:
    """The index ``n`` of a ``seg=<n>`` component label.

    ``n`` must be a non-negative decimal integer in its canonical form (no
    sign, spaces or leading zeros), so exactly one label names each
    segment; anything else raises :class:`NDNError`.
    """
    digits = label[len("seg="):] if label.startswith("seg=") else ""
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise NDNError(f"malformed segment component {label!r}")
    return int(digits)


def _segment_index(data: Data) -> int:
    return parse_segment(data.name.last().to_str())


def reassemble(segments: "Sequence[Data] | Iterable[Data]") -> bytes:
    """Reassemble segments (any order) into the original byte string.

    Raises :class:`NDNError` on missing or duplicate segments, or when the
    final block id disagrees with the number of segments supplied.
    """
    packets = list(segments)
    if not packets:
        raise NDNError("cannot reassemble zero segments")
    indexed: dict[int, Data] = {}
    expected_last: Optional[int] = None
    for packet in packets:
        index = _segment_index(packet)
        if index in indexed:
            raise NDNError(f"duplicate segment {index} for {packet.name.prefix(-1)}")
        indexed[index] = packet
        if packet.final_block_id is not None:
            last = parse_segment(packet.final_block_id.to_str())
            if expected_last is not None and expected_last != last:
                raise NDNError("segments disagree on the final block id")
            expected_last = last
    last_index = expected_last if expected_last is not None else max(indexed)
    missing = [i for i in range(last_index + 1) if i not in indexed]
    if missing:
        raise NDNError(f"missing segments: {missing}")
    return b"".join(indexed[i].content for i in range(last_index + 1))
