"""Result caching keyed by canonical request names (paper §VII future work).

"Implementing result caching in the framework would be beneficial, primarily
when multiple clients issue identical requests.  This can be achieved by
uniquely identifying names and using various storage solutions ... to store
the mapping information."

The cache maps a request's canonical key (application + datasets + parameters,
excluding the granted resources) to the name and size of the previously
published result.  On a hit the gateway answers immediately and records a
zero-runtime completed job instead of spawning a Kubernetes Job.  Entries
never expire: a result is independent of NDN freshness, and only LRU
capacity eviction removes one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.spec import ComputeRequest
from repro.ndn.name import Name

__all__ = ["CachedResult", "ResultCache"]


@dataclass(frozen=True)
class CachedResult:
    """A previously computed result."""

    cache_key: str
    result_name: Name
    result_size_bytes: int
    produced_by_job: str


class ResultCache:
    """An LRU map from canonical request keys to published results."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = max(0, capacity)
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # -- lookup -------------------------------------------------------------------

    def lookup(self, request: "ComputeRequest | str") -> Optional[CachedResult]:
        """Return the cached result for a request, or ``None``."""
        key = request if isinstance(request, str) else request.cache_key()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    # -- insertion -------------------------------------------------------------------

    def store(self, request: "ComputeRequest | str", result_name: Name,
              result_size_bytes: int, produced_by_job: str) -> Optional[CachedResult]:
        """Record a freshly produced result (no-op when capacity is zero)."""
        if self.capacity == 0:
            return None
        key = request if isinstance(request, str) else request.cache_key()
        entry = CachedResult(
            cache_key=key,
            result_name=result_name,
            result_size_bytes=result_size_bytes,
            produced_by_job=produced_by_job,
        )
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = entry
        self.insertions += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    # -- reporting --------------------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "size": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_ratio": self.hit_ratio,
            "insertions": float(self.insertions),
            "evictions": float(self.evictions),
        }
