"""Decentralized prefix routing (the reproduction's NLSR equivalent).

Each forwarder runs a :class:`RoutingDaemon`.  Daemons on adjacent forwarders
exchange :class:`PrefixAnnouncement` messages over their shared link; each
daemon keeps the lowest-cost advertisement per (prefix, origin) — its RIB —
and points the FIB back toward the neighbour the advertisement arrived from.

RIB → FIB projection.  The RIB is keyed by (prefix, origin), the FIB by
(prefix, face), and in a mesh several origins share one face (every cluster's
flooded announcement also arrives *through* every other cluster).  So a next
hop is never written from one RIB entry: whenever a route starts or stops
using ``(prefix, face)``, :meth:`RoutingDaemon._project` re-derives that next
hop from every RIB route using it — its cost is the minimum over them and it
disappears only with the last of them.  The daemon remembers what it wrote;
a next hop it did not write (a static ``Forwarder.register_prefix``) is the
operator's and is never re-costed or removed by routing activity.

This is a distance-vector protocol with sequence numbers for withdrawal —
deliberately simple, but it gives LIDC exactly what the paper needs:

* any cluster can announce ``/ndn/k8s/compute`` and become reachable from any
  client without central coordination;
* clusters joining or leaving the overlay propagate automatically
  (paper §I: "supports seamless job placement, addition and removal of
  clusters").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.exceptions import NDNError
from repro.ndn.face import Face
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name

__all__ = ["PrefixAnnouncement", "RoutingDaemon"]


@dataclass(frozen=True)
class PrefixAnnouncement:
    """An advertised (or withdrawn) name prefix."""

    prefix: Name
    origin: str
    cost: float = 0.0
    seq: int = 0
    withdrawn: bool = False

    def key(self) -> tuple[Name, str]:
        return (self.prefix, self.origin)


@dataclass
class _Adjacency:
    """A routing adjacency to a neighbouring daemon."""

    neighbor: "RoutingDaemon"
    local_face: Face
    link_cost: float = 1.0


@dataclass
class _RibEntry:
    """Best advertisement known for one (prefix, origin) pair."""

    announcement: PrefixAnnouncement
    via_face: Optional[Face] = None  # None for locally-originated prefixes
    learned_from: Optional[str] = None


class RoutingDaemon:
    """Prefix advertisement and propagation for one forwarder."""

    def __init__(self, forwarder: Forwarder, node_name: Optional[str] = None) -> None:
        self.forwarder = forwarder
        self.node_name = node_name or forwarder.name
        self._adjacencies: dict[str, _Adjacency] = {}
        self._rib: dict[tuple[Name, str], _RibEntry] = {}
        #: (prefix, face id) -> cost of the FIB next hops this daemon wrote.
        self._projected: dict[tuple[Name, int], float] = {}
        self._seq = 0
        self.announcements_sent = 0
        self.announcements_received = 0

    # -- adjacency management ---------------------------------------------------

    def add_adjacency(self, neighbor: "RoutingDaemon", local_face: Face, link_cost: float = 1.0) -> None:
        """Declare ``neighbor`` reachable through ``local_face``."""
        if local_face.face_id < 0:
            raise NDNError("adjacency face is not attached to the forwarder")
        self._adjacencies[neighbor.node_name] = _Adjacency(
            neighbor=neighbor, local_face=local_face, link_cost=link_cost
        )
        # Share everything we already know with the new neighbour.
        self.share_rib(neighbor.node_name)

    def remove_adjacency(self, neighbor_name: str) -> None:
        """Forget ``neighbor_name`` and every route learned over it.

        Local only — no withdrawal is flooded: the origins may still be
        reachable over another path, whose owner will say so.
        """
        self._adjacencies.pop(neighbor_name, None)
        for key, entry in list(self._rib.items()):
            if entry.learned_from == neighbor_name:
                self._remove(key)

    def share_rib(self, neighbor_name: str) -> None:
        """Send every RIB entry to one neighbour (full-table refresh)."""
        for entry in list(self._rib.values()):
            self._send_to(neighbor_name, entry.announcement)

    @staticmethod
    def peer(daemon_a: "RoutingDaemon", face_a: Face, daemon_b: "RoutingDaemon", face_b: Face,
             link_cost: float = 1.0) -> None:
        """Create a symmetric adjacency between two daemons.

        Both sides exchange their full RIBs once both directions exist, so
        prefixes announced before the adjacency was formed still propagate.
        """
        daemon_a.add_adjacency(daemon_b, face_a, link_cost)
        daemon_b.add_adjacency(daemon_a, face_b, link_cost)
        daemon_a.share_rib(daemon_b.node_name)
        daemon_b.share_rib(daemon_a.node_name)

    # -- local origination --------------------------------------------------------

    def announce(self, prefix: "Name | str", cost: float = 0.0) -> PrefixAnnouncement:
        """Originate an advertisement for a locally-served prefix."""
        self._seq += 1
        announcement = PrefixAnnouncement(
            prefix=Name(prefix), origin=self.node_name, cost=cost, seq=self._seq
        )
        self._install(announcement, via_face=None, learned_from=None)
        self._flood(announcement, exclude=None)
        return announcement

    def withdraw(self, prefix: "Name | str") -> Optional[PrefixAnnouncement]:
        """Withdraw a locally-originated prefix (cluster leaving the overlay)."""
        key = (Name(prefix), self.node_name)
        entry = self._rib.get(key)
        if entry is None:
            return None
        self._seq += 1
        withdrawal = replace(entry.announcement, withdrawn=True, seq=self._seq)
        self._remove(key)
        self._flood(withdrawal, exclude=None)
        return withdrawal

    # -- receiving advertisements ---------------------------------------------------

    def receive(self, announcement: PrefixAnnouncement, from_neighbor: str) -> None:
        """Handle an advertisement arriving from an adjacent daemon."""
        self.announcements_received += 1
        adjacency = self._adjacencies.get(from_neighbor)
        if adjacency is None:
            return
        key = announcement.key()
        existing = self._rib.get(key)

        if announcement.withdrawn:
            if existing is None or existing.announcement.seq > announcement.seq:
                return
            self._remove(key)
            self._flood(announcement, exclude=from_neighbor)
            return

        total_cost = announcement.cost + adjacency.link_cost
        effective = replace(announcement, cost=total_cost)
        if existing is not None:
            if existing.via_face is None:
                return  # we originate this prefix ourselves; ignore echoes
            if existing.announcement.seq >= announcement.seq and existing.announcement.cost <= total_cost:
                return  # nothing better
        self._install(effective, via_face=adjacency.local_face, learned_from=from_neighbor)
        self._flood(effective, exclude=from_neighbor)

    # -- internals ----------------------------------------------------------------------

    def _install(self, announcement: PrefixAnnouncement, via_face: Optional[Face],
                 learned_from: Optional[str]) -> None:
        key = announcement.key()
        previous = self._rib.get(key)
        self._rib[key] = _RibEntry(
            announcement=announcement, via_face=via_face, learned_from=learned_from
        )
        if previous is not None and previous.via_face is not via_face:
            self._project(announcement.prefix, previous.via_face)
        self._project(announcement.prefix, via_face)

    def _remove(self, key: tuple[Name, str]) -> None:
        entry = self._rib.pop(key, None)
        if entry is not None:
            self._project(entry.announcement.prefix, entry.via_face)

    def _project(self, prefix: Name, face: Optional[Face]) -> None:
        """Re-derive the FIB next hop ``(prefix, face)`` from the RIB."""
        if face is None:
            return  # locally originated: the producer's own route serves it
        key = (prefix, face.face_id)
        fib = self.forwarder.fib
        written = self._projected.get(key)
        if fib.route_cost(*key) != written:
            # Not (or no longer) what this daemon wrote: a static route owns
            # the hop, or the face was removed and took its routes along.
            # Hands off — and ``written`` is kept, so a purged hop is never
            # put back on a face that may be gone.
            return
        cost = min(
            (
                entry.announcement.cost
                for (rib_prefix, _origin), entry in self._rib.items()
                if rib_prefix == prefix and entry.via_face is face
            ),
            default=None,
        )
        if cost == written:
            return
        if cost is None:
            del self._projected[key]
            fib.remove_route(*key)
        else:
            self._projected[key] = cost
            self.forwarder.register_prefix(prefix, face, cost=cost)

    def _flood(self, announcement: PrefixAnnouncement, exclude: Optional[str]) -> None:
        for neighbor_name in list(self._adjacencies):
            if neighbor_name == exclude:
                continue
            self._send_to(neighbor_name, announcement)

    def _send_to(self, neighbor_name: str, announcement: PrefixAnnouncement) -> None:
        adjacency = self._adjacencies.get(neighbor_name)
        if adjacency is None:
            return
        self.announcements_sent += 1
        adjacency.neighbor.receive(announcement, from_neighbor=self.node_name)

    # -- queries ---------------------------------------------------------------------------

    def origins_for(self, prefix: "Name | str") -> list[str]:
        """Which origins advertise ``prefix`` (exact match)."""
        prefix = Name(prefix)
        return sorted(origin for (pfx, origin) in self._rib if pfx == prefix)

    def rib_size(self) -> int:
        return len(self._rib)
