"""Pending Interest Table (PIT).

The PIT records which faces asked for which names so that returning Data can
be sent back along the reverse path, and so that identical in-flight requests
are aggregated (one upstream transmission serves many downstream consumers).

Every Interest is exact-match, so a name has at most one entry and a Data
satisfies exactly the entry under its own name.  Entries are keyed on the
name's wire bytes (:attr:`~repro.ndn.packet.WirePacket.name_bytes`), so a
probe hashes and compares ``bytes`` in C and never builds a
:class:`~repro.ndn.name.Name` key.  ``expire()`` pops a lazy min-heap of
record expiries, so the common case (nothing expired) is a single peek
instead of an O(n) sweep per packet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.ndn.name import Name
from repro.ndn.packet import WirePacket

__all__ = ["PitEntry", "PendingInterestTable"]


@dataclass(slots=True)
class _InRecord:
    """A downstream face that asked for the name."""

    face_id: int
    nonce: int
    expiry: float


@dataclass(slots=True)
class _OutRecord:
    """An upstream face the Interest was forwarded to."""

    face_id: int
    nonce: int
    expiry: float


@dataclass(slots=True)
class PitEntry:
    """All state for one pending name.

    Entry/record classes are slotted (lint rule RL006): every in-flight
    Interest allocates one entry plus an in/out record per face, so their
    per-instance ``__dict__`` would be the table's dominant cost.
    """

    name: Name
    #: The most recent Interest inserted under this entry.  Kept so
    #: control-plane cleanup (face removal, shard rebalance) can re-forward
    #: the Interest or Nack the downstreams without re-synthesising a packet.
    interest: WirePacket
    in_records: dict[int, _InRecord] = field(default_factory=dict)
    out_records: dict[int, _OutRecord] = field(default_factory=dict)
    nonces: set[int] = field(default_factory=set)

    def downstream_faces(self) -> list[int]:
        """Faces waiting for Data, in insertion order."""
        return list(self.in_records.keys())

    def expiry(self) -> float:
        """Latest expiry over all records (entry lifetime)."""
        expiries = [rec.expiry for rec in self.in_records.values()]
        expiries += [rec.expiry for rec in self.out_records.values()]
        return max(expiries) if expiries else 0.0


class PendingInterestTable:
    """PIT keyed by name bytes: one entry per pending name."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._entries: dict[bytes, PitEntry] = {}
        #: Lazy expiry heap of (when, seq, key).  Keys may be stale (entry
        #: satisfied/removed or lifetime extended); ``expire()`` revalidates
        #: against the live entry before dropping anything.
        self._expiry_heap: list[tuple[float, int, bytes]] = []
        self._heap_seq = 0
        self.aggregated = 0
        self.satisfied = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _push_expiry(self, key: bytes, when: float) -> None:
        heapq.heappush(self._expiry_heap, (when, self._heap_seq, key))
        self._heap_seq += 1

    # -- Interest path -------------------------------------------------------

    def insert(self, interest: WirePacket, in_face_id: int) -> tuple[PitEntry, bool]:
        """Record a downstream request.

        Returns ``(entry, is_new)``; ``is_new`` is False when the Interest was
        aggregated onto an existing entry (already pending upstream).
        """
        key = interest.name_bytes
        now = self._clock()
        expiry = now + interest.lifetime
        entry = self._entries.get(key)
        is_new = entry is None
        if entry is None:
            entry = self._entries[key] = PitEntry(name=interest.name, interest=interest)
        else:
            self.aggregated += 1
            entry.interest = interest
        entry.in_records[in_face_id] = _InRecord(face_id=in_face_id, nonce=interest.nonce, expiry=expiry)
        entry.nonces.add(interest.nonce)
        self._push_expiry(key, expiry)
        return entry, is_new

    def is_duplicate_nonce(self, interest: WirePacket) -> bool:
        """Loop detection: same name with a nonce we have already seen."""
        entry = self._entries.get(interest.name_bytes)
        return entry is not None and interest.nonce in entry.nonces

    def record_out(self, interest: WirePacket, out_face_id: int) -> None:
        """Record that the Interest was forwarded upstream on ``out_face_id``."""
        key = interest.name_bytes
        entry = self._entries.get(key)
        if entry is None:
            return
        expiry = self._clock() + interest.lifetime
        entry.out_records[out_face_id] = _OutRecord(
            face_id=out_face_id, nonce=interest.nonce, expiry=expiry
        )
        self._push_expiry(key, expiry)

    # -- Data path -----------------------------------------------------------------

    def satisfy(self, data: WirePacket) -> Optional[PitEntry]:
        """Consume and return the entry under ``data``'s name, or ``None``."""
        entry = self._entries.pop(data.name_bytes, None)
        if entry is not None:
            self.satisfied += 1
        return entry

    def find_exact(self, interest: WirePacket) -> Optional[PitEntry]:
        return self._entries.get(interest.name_bytes)

    def remove(self, interest: WirePacket) -> None:
        self._entries.pop(interest.name_bytes, None)

    # -- maintenance ---------------------------------------------------------------

    def expire(self) -> list[PitEntry]:
        """Drop entries whose every record has expired; returns them.

        Costs O(1) when nothing is due.  Heap items are revalidated against
        the live entry: satisfied/removed entries are skipped, and entries
        whose lifetime was extended by a later record are re-queued at their
        new expiry instead of being dropped early.
        """
        heap = self._expiry_heap
        if not heap:
            return []
        now = self._clock()
        dead: list[PitEntry] = []
        while heap and heap[0][0] <= now:
            _when, _seq, key = heapq.heappop(heap)
            entry = self._entries.get(key)
            if entry is None:
                continue  # already satisfied or removed
            actual = entry.expiry()
            if actual <= now:
                del self._entries[key]
                dead.append(entry)
                self.expired += 1
            else:
                self._push_expiry(key, actual)
        return dead

    def entries(self) -> Iterable[PitEntry]:
        return list(self._entries.values())
