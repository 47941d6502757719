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
from typing import Optional

from repro.exceptions import NDNError
from repro.ndn.name import Name
from repro.ndn.nametree import NameTree, as_name

__all__ = ["FibEntry", "Fib"]


@dataclass(frozen=True, slots=True)
class _NextHop:
    """One next-hop: a face id plus a routing cost."""

    face_id: int
    cost: float = 0.0


@dataclass(slots=True)
class FibEntry:
    """A FIB entry: a prefix and its next hops sorted by cost.

    Slotted (lint rule RL006): a 10k-node overlay FIB holds an entry per
    route and a _NextHop per adjacency; both must stay cheap to hold.
    """

    prefix: Name
    nexthops: list[_NextHop] = field(default_factory=list)

    def add_nexthop(self, face_id: int, cost: float = 0.0) -> None:
        """Add or update a next hop, keeping the list sorted by cost."""
        self.nexthops = [hop for hop in self.nexthops if hop.face_id != face_id]
        self.nexthops.append(_NextHop(face_id=face_id, cost=cost))
        self.nexthops.sort(key=lambda hop: (hop.cost, hop.face_id))

    def remove_nexthop(self, face_id: int) -> bool:
        before = len(self.nexthops)
        self.nexthops = [hop for hop in self.nexthops if hop.face_id != face_id]
        return len(self.nexthops) != before

    def has_nexthops(self) -> bool:
        return bool(self.nexthops)


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
        entry = self._tree.setdefault(as_name(prefix), lambda name: FibEntry(prefix=name))
        entry.add_nexthop(face_id, cost)
        return entry

    def remove_route(self, prefix: "Name | str", face_id: int) -> bool:
        """Unregister one next hop; drops the entry when no hops remain."""
        prefix = as_name(prefix)
        entry = self._tree.get(prefix)
        if entry is None:
            return False
        removed = entry.remove_nexthop(face_id)
        if removed and not entry.has_nexthops():
            self._tree.remove(prefix)
        return removed

    def remove_face(self, face_id: int) -> int:
        """Remove ``face_id`` from every entry (face went down); returns count."""
        removed = 0
        for entry in self.entries():
            if entry.remove_nexthop(face_id):
                removed += 1
                if not entry.has_nexthops():
                    self._tree.remove(entry.prefix)
        return removed

    def lookup(self, name: "Name | str") -> Optional[FibEntry]:
        """Longest-prefix match for ``name`` (entries with live next hops only)."""
        self.lookups += 1
        item = self._tree.longest_prefix_item(name)
        if item is not None and item[1].has_nexthops():
            return item[1]
        return None

    def route_cost(self, prefix: "Name | str", face_id: int) -> Optional[float]:
        """The cost of the next hop ``(prefix, face_id)``; ``None`` without one."""
        entry = self._tree.get(prefix)
        hops = entry.nexthops if entry is not None else ()
        return next((hop.cost for hop in hops if hop.face_id == face_id), None)

    def entries(self) -> list[FibEntry]:
        """All entries, depth-first in canonical component order."""
        return [entry for _name, entry in self._tree.items()]
