"""Pending Interest Table (PIT).

The PIT records which faces asked for which names so that returning Data can
be sent back along the reverse path, and so that identical in-flight requests
are aggregated (one upstream transmission serves many downstream consumers).

Two hot paths avoid scanning the table:

* ``expire()`` pops a lazy min-heap of record expiries, so the common case
  (nothing expired) is a single peek instead of an O(n) sweep per packet.
* ``satisfy()`` probes the entry dict once per prefix of the Data name
  (exact key plus each ``can_be_prefix`` prefix key) instead of testing
  every pending entry — and skips the per-prefix probes altogether while
  no ``can_be_prefix`` entry is live (a counter, not a scan).
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
    can_be_prefix: bool
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
    """PIT keyed by (name, can_be_prefix)."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._entries: dict[tuple[Name, bool], PitEntry] = {}
        #: Live entries with ``can_be_prefix``; while it is zero the Data path
        #: has no prefix key to probe for (and no prefix ``Name`` to build).
        self._prefix_entries = 0
        #: Lazy expiry heap of (when, seq, key).  Keys may be stale (entry
        #: satisfied/removed or lifetime extended); ``expire()`` revalidates
        #: against the live entry before dropping anything.
        self._expiry_heap: list[tuple[float, int, tuple[Name, bool]]] = []
        self._heap_seq = 0
        self.aggregated = 0
        self.satisfied = 0
        self.expired = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, interest: WirePacket) -> tuple[Name, bool]:
        return (interest.name, interest.can_be_prefix)

    def _pop(self, key: tuple[Name, bool]) -> Optional[PitEntry]:
        """Remove and return the entry under ``key`` (the one removal path)."""
        entry = self._entries.pop(key, None)
        if entry is not None and entry.can_be_prefix:
            self._prefix_entries -= 1
        return entry

    def _push_expiry(self, key: tuple[Name, bool], when: float) -> None:
        heapq.heappush(self._expiry_heap, (when, self._heap_seq, key))
        self._heap_seq += 1

    # -- Interest path -------------------------------------------------------

    def insert(self, interest: WirePacket, in_face_id: int) -> tuple[PitEntry, bool]:
        """Record a downstream request.

        Returns ``(entry, is_new)``; ``is_new`` is False when the Interest was
        aggregated onto an existing entry (already pending upstream).
        """
        key = self._key(interest)
        now = self._clock()
        expiry = now + interest.lifetime
        entry = self._entries.get(key)
        is_new = entry is None
        if entry is None:
            entry = PitEntry(name=key[0], can_be_prefix=key[1], interest=interest)
            self._entries[key] = entry
            if entry.can_be_prefix:
                self._prefix_entries += 1
        else:
            self.aggregated += 1
            entry.interest = interest
        entry.in_records[in_face_id] = _InRecord(face_id=in_face_id, nonce=interest.nonce, expiry=expiry)
        entry.nonces.add(interest.nonce)
        self._push_expiry(key, expiry)
        return entry, is_new

    def is_duplicate_nonce(self, interest: WirePacket) -> bool:
        """Loop detection: same name with a nonce we have already seen."""
        entry = self._entries.get(self._key(interest))
        return entry is not None and interest.nonce in entry.nonces

    def record_out(self, interest: WirePacket, out_face_id: int) -> None:
        """Record that the Interest was forwarded upstream on ``out_face_id``."""
        key = self._key(interest)
        entry = self._entries.get(key)
        if entry is None:
            return
        expiry = self._clock() + interest.lifetime
        entry.out_records[out_face_id] = _OutRecord(
            face_id=out_face_id, nonce=interest.nonce, expiry=expiry
        )
        self._push_expiry(key, expiry)

    # -- Data path -----------------------------------------------------------------

    def _matching_keys(self, data: WirePacket) -> list[tuple[Name, bool]]:
        """Keys of entries ``data`` satisfies, probing one key per prefix.

        An exact entry matches only under the full name; a prefix entry
        matches under any leading prefix (including the full name and the
        root).  Order is deterministic: exact first, then prefixes from
        shortest to longest.
        """
        keys: list[tuple[Name, bool]] = []
        exact_key = (data.name, False)
        if exact_key in self._entries:
            keys.append(exact_key)
        if self._prefix_entries:
            for length in range(len(data.name) + 1):
                key = (data.name.prefix(length), True)
                if key in self._entries:
                    keys.append(key)
        return keys

    def satisfy(self, data: WirePacket) -> list[int]:
        """Consume entries matched by ``data``; returns downstream face ids."""
        faces: list[int] = []
        for key in self._matching_keys(data):
            entry = self._pop(key)
            self.satisfied += 1
            for face_id in entry.downstream_faces():
                if face_id not in faces:
                    faces.append(face_id)
        return faces

    def find_exact(self, interest: WirePacket) -> Optional[PitEntry]:
        return self._entries.get(self._key(interest))

    def entry_at(self, key: tuple[Name, bool]) -> Optional[PitEntry]:
        """The entry under a (name, can_be_prefix) key, or ``None``."""
        return self._entries.get(key)

    def remove(self, interest: WirePacket) -> None:
        self._pop(self._key(interest))

    def remove_from_key(self, key: tuple[Name, bool]) -> None:
        """Drop an entry by its (name, can_be_prefix) key (cleanup paths)."""
        self._pop(key)

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
                self._pop(key)
                dead.append(entry)
                self.expired += 1
            else:
                self._push_expiry(key, actual)
        return dead

    def entries(self) -> Iterable[PitEntry]:
        return list(self._entries.values())
