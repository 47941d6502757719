"""Forwarding Information Base (FIB) backed by a name-prefix trie.

The FIB maps name prefixes to next-hop faces with costs.  Lookup is
longest-prefix match over name components — the mechanism that lets
``/ndn/k8s/compute`` and ``/ndn/k8s/data`` route to different places while a
bare ``/ndn/k8s`` route acts as a fallback.

The trie itself lives in :mod:`repro.ndn.nametree` and is shared with the
Content Store; this module specialises it to :class:`FibEntry` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import NDNError
from repro.ndn.name import Name
from repro.ndn.nametree import NameTree as _GenericNameTree, as_name

__all__ = ["NextHop", "FibEntry", "NameTree", "Fib"]


@dataclass(frozen=True, slots=True)
class NextHop:
    """One next-hop: a face id plus a routing cost."""

    face_id: int
    cost: float = 0.0


@dataclass(slots=True)
class FibEntry:
    """A FIB entry: a prefix and its next hops sorted by cost.

    Slotted (lint rule RL006): a 10k-node overlay FIB holds an entry per
    route and a NextHop per adjacency; both must stay cheap to hold.
    """

    prefix: Name
    nexthops: list[NextHop] = field(default_factory=list)

    def add_nexthop(self, face_id: int, cost: float = 0.0) -> None:
        """Add or update a next hop, keeping the list sorted by cost."""
        self.nexthops = [hop for hop in self.nexthops if hop.face_id != face_id]
        self.nexthops.append(NextHop(face_id=face_id, cost=cost))
        self.nexthops.sort(key=lambda hop: (hop.cost, hop.face_id))

    def remove_nexthop(self, face_id: int) -> bool:
        before = len(self.nexthops)
        self.nexthops = [hop for hop in self.nexthops if hop.face_id != face_id]
        return len(self.nexthops) != before

    def has_nexthops(self) -> bool:
        return bool(self.nexthops)

    def best(self) -> Optional[NextHop]:
        return self.nexthops[0] if self.nexthops else None


class NameTree:
    """A trie over name components holding :class:`FibEntry` objects.

    A thin :class:`FibEntry`-typed facade over the generic
    :class:`repro.ndn.nametree.NameTree`, kept for API (and import)
    compatibility with earlier revisions.
    """

    __slots__ = ("_tree",)

    def __init__(self) -> None:
        self._tree = _GenericNameTree()

    def __len__(self) -> int:
        return len(self._tree)

    def insert(self, prefix: "Name | str") -> FibEntry:
        """Get-or-create the entry at ``prefix``."""
        return self._tree.setdefault(prefix, lambda name: FibEntry(prefix=name))

    def exact(self, prefix: "Name | str") -> Optional[FibEntry]:
        """The entry exactly at ``prefix``, if any."""
        return self._tree.get(prefix)

    def longest_prefix_match(self, name: "Name | str") -> Optional[FibEntry]:
        """The deepest entry whose prefix is a prefix of ``name``."""
        item = self._tree.longest_prefix_item(name)
        return item[1] if item is not None else None

    def remove(self, prefix: "Name | str") -> bool:
        """Remove the entry at ``prefix`` (pruning empty branches)."""
        return self._tree.remove(prefix)

    def entries(self) -> Iterator[FibEntry]:
        """All entries, depth-first in canonical component order."""
        for _name, entry in self._tree.items():
            yield entry


class Fib:
    """The forwarder's FIB: prefix registration plus longest-prefix lookup."""

    def __init__(self) -> None:
        self._tree = NameTree()
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._tree)

    def add_route(self, prefix: "Name | str", face_id: int, cost: float = 0.0) -> FibEntry:
        """Register ``prefix`` towards ``face_id`` with the given cost."""
        if face_id < 0:
            raise NDNError(f"invalid face id {face_id}")
        entry = self._tree.insert(as_name(prefix))
        entry.add_nexthop(face_id, cost)
        return entry

    def remove_route(self, prefix: "Name | str", face_id: int) -> bool:
        """Unregister one next hop; drops the entry when no hops remain."""
        prefix = as_name(prefix)
        entry = self._tree.exact(prefix)
        if entry is None:
            return False
        removed = entry.remove_nexthop(face_id)
        if removed and not entry.has_nexthops():
            self._tree.remove(prefix)
        return removed

    def remove_face(self, face_id: int) -> int:
        """Remove ``face_id`` from every entry (face went down); returns count."""
        removed = 0
        for entry in list(self._tree.entries()):
            if entry.remove_nexthop(face_id):
                removed += 1
                if not entry.has_nexthops():
                    self._tree.remove(entry.prefix)
        return removed

    def lookup(self, name: "Name | str") -> Optional[FibEntry]:
        """Longest-prefix match for ``name`` (entries with live next hops only)."""
        self.lookups += 1
        entry = self._tree.longest_prefix_match(name)
        if entry is not None and entry.has_nexthops():
            return entry
        return None

    def exact(self, prefix: "Name | str") -> Optional[FibEntry]:
        return self._tree.exact(prefix)

    def route_cost(self, prefix: "Name | str", face_id: int) -> Optional[float]:
        """The cost of the next hop ``(prefix, face_id)``; ``None`` without one."""
        entry = self._tree.exact(prefix)
        hops = entry.nexthops if entry is not None else ()
        return next((hop.cost for hop in hops if hop.face_id == face_id), None)

    def entries(self) -> list[FibEntry]:
        return list(self._tree.entries())

    def prefixes(self) -> list[Name]:
        return [entry.prefix for entry in self._tree.entries()]
