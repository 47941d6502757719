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
from repro.ndn.security import DigestSigner, HmacSigner

__all__ = ["segment_content", "reassemble", "DEFAULT_SEGMENT_SIZE"]

#: Default segment payload size in bytes (mirrors common NDN repo settings).
DEFAULT_SEGMENT_SIZE = 8192


def segment_content(
    base_name: "Name | str",
    content: bytes,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    signer: "DigestSigner | HmacSigner | None" = None,
    freshness_period: float = 0.0,
) -> list[Data]:
    """Split ``content`` into signed Data segments under ``base_name``.

    Even empty content produces a single (empty) segment so consumers always
    find ``seg=0``.
    """
    if segment_size <= 0:
        raise NDNError(f"segment size must be positive, got {segment_size}")
    base = Name(base_name)
    signer = signer or DigestSigner()
    chunks: list[bytes] = [
        content[offset:offset + segment_size] for offset in range(0, len(content), segment_size)
    ] or [b""]
    final_block = Component(f"seg={len(chunks) - 1}")
    packets = []
    for index, chunk in enumerate(chunks):
        packet = Data(
            name=base.append(f"seg={index}"),
            content=chunk,
            freshness_period=freshness_period,
            final_block_id=final_block,
        ).sign(signer)
        packets.append(packet)
    return packets


def _segment_index(data: Data) -> int:
    label = data.name.last().to_str()
    if not label.startswith("seg="):
        raise NDNError(f"not a segment name: {data.name}")
    try:
        return int(label[len("seg="):])
    except ValueError as exc:
        raise NDNError(f"malformed segment index in {data.name}") from exc


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
            label = packet.final_block_id.to_str()
            if label.startswith("seg="):
                last = int(label[len("seg="):])
                if expected_last is not None and expected_last != last:
                    raise NDNError("segments disagree on the final block id")
                expected_last = last
    last_index = expected_last if expected_last is not None else max(indexed)
    missing = [i for i in range(last_index + 1) if i not in indexed]
    if missing:
        raise NDNError(f"missing segments: {missing}")
    return b"".join(indexed[i].content for i in range(last_index + 1))
