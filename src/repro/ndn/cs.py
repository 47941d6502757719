"""Content Store: the forwarder's in-network cache.

The Content Store satisfies Interests from previously-seen Data, which is the
mechanism behind the paper's future-work item on result caching: identical
computation results published under the same name are answered from the cache
without re-execution.

The store is a bounded LRU.  The entry dict is kept in recency order
(``move_to_end`` on every hit and refresh) and the least-recent entry is
evicted with ``popitem(last=False)``, so both are O(1).  Capacity 0 disables
caching.  Lowering :attr:`ContentStore.capacity` evicts lazily: a new insert
evicts while the store is full, a refresh evicts while it is over capacity.
Every Interest is exact-match, so a lookup and an erase each touch the one
entry under exactly their name.

Entries and lookups are :class:`~repro.ndn.packet.WirePacket` views: a
transiting Data is cached and re-served as its wire buffer without ever
being decoded on this node.

Coherence contract between the system's caches:

* The CS is the authority on what a forwarder may answer from cache.
* The shard dispatcher's hot cache (:class:`~repro.ndn.strategy.DispatcherHotCache`)
  mirrors it.  An entry is admitted only while resident in the owning
  shard's CS and is aged from the CS arrival time (:meth:`ContentStore.arrival`).
  It is dropped when the CS lets the name go (:attr:`ContentStore.on_evict`
  fires on eviction, ``erase`` and ``clear``) and when a producer is
  installed under it.
* The gateway's result cache (:class:`~repro.core.caching.ResultCache`) is
  keyed by canonical compute request and is independent of NDN freshness.
* The access routers' owner-affinity memory
  (:class:`~repro.ndn.strategy.OwnerAffinityStrategy`) is routing state, not
  content: it remembers which upstream owns a namespace (a status name's
  cluster), never an answer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from repro.exceptions import NDNError
from repro.ndn.name import Name
from repro.ndn.nametree import as_name
from repro.ndn.packet import WirePacket

__all__ = ["ContentStore"]


@dataclass(slots=True)
class _CsEntry:
    """One cached Data view plus its arrival time.

    Slotted (lint rule RL006): a populated store holds one of these per
    cached Data, so the per-instance ``__dict__`` would dominate the
    store's own memory at overlay scale.
    """

    data: WirePacket
    arrival_time: float

    def is_fresh(self, now: float) -> bool:
        """Freshness per the Data's freshness period (0 = always stale)."""
        if self.data.freshness_period <= 0:
            return False
        return (now - self.arrival_time) <= self.data.freshness_period


class ContentStore:
    """A bounded LRU cache of Data packets keyed by exact name."""

    def __init__(
        self,
        capacity: int = 1024,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.capacity = capacity
        self._clock = clock or (lambda: 0.0)
        #: Entries in recency order, least recent first.
        self._entries: "OrderedDict[Name, _CsEntry]" = OrderedDict()
        #: Coherence hook: called with each Name leaving the store (capacity
        #: eviction, ``erase`` or ``clear``) so an upstream exact-match
        #: mirror — e.g. the shard dispatcher's hot cache — can drop its
        #: copy the moment this store stops vouching for it.  Refreshing an
        #: existing entry in place does not fire it.
        self.on_evict: Optional[Callable[[Name], None]] = None
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: "Name | str") -> bool:
        return as_name(name) in self._entries

    def names(self) -> list[Name]:
        """Every cached name, least recent first (control-plane sweeps only)."""
        return list(self._entries.keys())

    # -- capacity ------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum entry count."""
        return self._capacity

    @capacity.setter
    def capacity(self, value: int) -> None:
        # No eviction here: the next insert trims the store to the new bound.
        if value < 0:
            raise NDNError(f"content store capacity must be non-negative, got {value}")
        self._capacity = value

    # -- insertion -----------------------------------------------------------

    def insert(self, data: WirePacket) -> None:
        """Cache ``data``; at capacity zero, caches nothing and evicts all."""
        if self._capacity == 0:
            # Capacity lowered to 0 since the entries were cached.
            while self._entries:
                self._evict_one()
            return
        now = self._clock()
        name = data.name
        entries = self._entries
        entry = entries.get(name)
        if entry is not None:
            # Refresh in place; a refresh counts as use.
            entry.data = data
            entry.arrival_time = now
            entries.move_to_end(name)
            # Capacity may have been lowered since this entry was cached;
            # the refresh path must honour it too.
            while len(entries) > self._capacity:
                self._evict_one()
            return
        while len(entries) >= self._capacity:
            self._evict_one()
        entries[name] = _CsEntry(data=data, arrival_time=now)
        self.insertions += 1

    def _evict_one(self) -> None:
        victim, _ = self._entries.popitem(last=False)
        self.evictions += 1
        if self.on_evict is not None:
            self.on_evict(victim)

    # -- lookup ----------------------------------------------------------------

    def find(self, interest: WirePacket) -> Optional[WirePacket]:
        """Return the cached Data named exactly as ``interest``, or ``None``.

        An Interest with MustBeFresh accepts only an entry still within its
        freshness period.
        """
        name = interest.name
        entry = self._entries.get(name)
        if entry is None or (interest.must_be_fresh and not entry.is_fresh(self._clock())):
            self.misses += 1
            return None
        self._entries.move_to_end(name)
        self.hits += 1
        return entry.data

    def arrival(self, name: Name) -> Optional[float]:
        """When the entry under exactly ``name`` arrived, or ``None``.

        This is the store's authoritative freshness anchor: a mirror tier
        (the shard dispatcher's hot cache) must age its copy from the CS
        arrival time, not from whenever it happened to observe the Data —
        otherwise a stale re-serve would restart the freshness window.
        """
        entry = self._entries.get(name)
        return None if entry is None else entry.arrival_time

    # -- maintenance ------------------------------------------------------------

    def erase(self, name: "Name | str") -> None:
        """Remove the entry under exactly ``name``, if there is one."""
        name = as_name(name)
        if self._entries.pop(name, None) is not None and self.on_evict is not None:
            self.on_evict(name)

    def clear(self) -> None:
        if self.on_evict is not None:
            for name in self._entries:
                self.on_evict(name)
        self._entries.clear()
