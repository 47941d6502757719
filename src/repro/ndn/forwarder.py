"""The NDN forwarder (the reproduction's NFD equivalent).

The forwarder owns the three tables (CS, PIT, FIB), a set of faces, and a
strategy-choice table.  Its pipelines mirror NFD's:

Interest pipeline
    hop-limit check → duplicate-nonce check → Content Store lookup → PIT
    insert/aggregate → FIB longest-prefix match → strategy → forward
    (or NACK ``NoRoute``).

Data pipeline
    PIT match by exact name (unsolicited Data is dropped) → Content Store
    insert → forward to every downstream face.

Nack pipeline
    retry on an alternative next hop if the strategy has one left, otherwise
    propagate the NACK downstream and erase the PIT entry.

Every packet reaches the forwarder as the
:class:`~repro.ndn.packet.WirePacket` its face delivered, typed at
construction: PIT/CS/FIB lookups are driven off the view's lazily-parsed
name and header flags, forwarded Data and Nacks re-transmit the original
wire buffer, and the per-hop Interest copy patches the hop-limit byte (an
Interest without one is forwarded as the same bytes).  A transiting packet
is never fully decoded on this node; only application endpoints (producer
handlers, consumers) materialise packet objects.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import NDNError
from repro.ndn.cs import ContentStore
from repro.ndn.face import Face, LocalFace
from repro.ndn.fib import Fib
from repro.ndn.name import Name
from repro.ndn.nametree import as_name
from repro.ndn.packet import Data, NackReason, WirePacket
from repro.ndn.pit import PendingInterestTable, PitEntry
from repro.ndn.strategy import Strategy, StrategyChoiceTable
from repro.ndn.tlv import TlvTypes
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.sim.trace import Tracer

__all__ = ["Forwarder"]


class Forwarder:
    """A software forwarder node.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Node name (used in traces and for routing adjacency).
    cs_capacity:
        Content-store capacity in packets (LRU; 0 disables caching).

    Data that arrives with no matching PIT entry is unsolicited: it is
    dropped, never cached, and counted in ``data_unsolicited``.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "forwarder",
        cs_capacity: int = 1024,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.cs = ContentStore(capacity=cs_capacity, clock=lambda: env.now)
        self.pit = PendingInterestTable(clock=lambda: env.now)
        self.fib = Fib()
        self.strategies = StrategyChoiceTable()
        self.tracer = tracer or Tracer(clock=lambda: env.now, enabled=False)
        self.metrics = MetricsRegistry()
        self._faces: dict[int, Face] = {}
        self._next_face_id = 1

    # ------------------------------------------------------------------ faces

    def add_face(self, face: Face) -> int:
        """Register a face and return its id."""
        face_id = self._next_face_id
        self._next_face_id += 1
        self._faces[face_id] = face
        return face_id

    def remove_face(self, face_id: int) -> None:
        """Detach a face and purge it from the FIB.

        Pending Interests that were forwarded (only) over the removed face
        are not left to time out: each is re-forwarded over an alternative
        next hop when the FIB still has one, and otherwise its downstreams
        are Nacked with ``NoRoute`` and the entry is dropped.
        """
        face = self._faces.pop(face_id, None)
        if face is not None:
            face.close()
        self.fib.remove_face(face_id)
        self._on_face_removed(face_id)

    def _on_face_removed(self, face_id: int) -> None:
        """Rescue or reject PIT entries whose upstream path just vanished."""
        for entry in self.pit.entries():
            record = entry.out_records.pop(face_id, None)
            if record is None:
                continue  # this entry never went upstream over the dead face
            if entry.out_records:
                continue  # another upstream transmission is still in flight
            # Retry through the normal pipeline: the removed face is gone
            # from the FIB, and ``_reject`` Nacks the downstreams when no
            # alternative next hop remains.
            self._forward_interest(entry.interest, entry, face_id)

    def abort_pending(self, predicate: Callable[["PitEntry"], bool]) -> int:
        """Nack (``NoRoute``) and drop every PIT entry matching ``predicate``.

        Control-plane helper for shard rebalance and shard crashes: the
        downstream consumers get an immediate Nack instead of a silent
        timeout, so retry policies can re-route at once.  Returns the number
        of aborted entries.
        """
        aborted = 0
        for entry in self.pit.entries():
            if not predicate(entry):
                continue
            self._reject(entry.interest, NackReason.NO_ROUTE)
            aborted += 1
        return aborted

    def face(self, face_id: int) -> Face:
        try:
            return self._faces[face_id]
        except KeyError:
            raise NDNError(f"{self.name}: unknown face id {face_id}") from None

    def faces(self) -> dict[int, Face]:
        return dict(self._faces)

    # ----------------------------------------------------------------- routes

    def register_prefix(self, prefix: "Name | str", face: "Face | int", cost: float = 0.0) -> None:
        """Register a prefix towards a face (by object or id)."""
        face_id = face.face_id if isinstance(face, Face) else int(face)
        if face_id not in self._faces:
            raise NDNError(f"{self.name}: cannot register prefix on unknown face {face_id}")
        self.fib.add_route(prefix, face_id, cost)
        self.tracer.record("fib", "register", prefix=str(as_name(prefix)), face=face_id, cost=cost)

    def unregister_prefix(self, prefix: "Name | str", face: "Face | int") -> bool:
        face_id = face.face_id if isinstance(face, Face) else int(face)
        removed = self.fib.remove_route(prefix, face_id)
        if removed:
            self.tracer.record("fib", "unregister", prefix=str(as_name(prefix)), face=face_id)
        return removed

    def set_strategy(self, prefix: "Name | str", strategy: Strategy) -> None:
        """Choose the forwarding strategy for a namespace."""
        self.strategies.set_strategy(prefix, strategy)

    def attach_producer(
        self,
        prefix: "Name | str",
        handler: Callable[[WirePacket], "Data | WirePacket | None"],
    ) -> Face:
        """Attach an application producer.

        ``handler`` is invoked for each Interest reaching the prefix with a
        lazy :class:`~repro.ndn.packet.WirePacket` view (read every Interest
        field directly, or call ``.decode()`` for the full object); it may
        return a :class:`Data` object, a Data view or the Interest view's
        :meth:`~repro.ndn.packet.WirePacket.nack` (sent back immediately),
        or ``None`` (the application will answer later through the returned
        face's ``send``).
        """

        class _ProducerEndpoint:
            def add_face(self, face: Face) -> int:
                return 0  # application side does not number its faces

            def receive_packet(self, packet: WirePacket, face: Face) -> None:
                if packet.packet_type == TlvTypes.INTEREST:
                    response = handler(packet)
                    if response is not None:
                        face.send(response)

        app_face = LocalFace(self.env, _ProducerEndpoint(), label=f"{self.name}:app:{prefix}")
        fwd_face = LocalFace(self.env, self, label=f"{self.name}:fwd:{prefix}")
        app_face.set_peer(fwd_face)
        fwd_face.set_peer(app_face)
        fwd_face.attach()
        self.register_prefix(prefix, fwd_face)
        return app_face

    # ------------------------------------------------------------- packet I/O

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        """Entry point for every packet arriving on one of our faces."""
        self.pit.expire()
        packet_type = packet.packet_type
        if packet_type == TlvTypes.INTEREST:
            self._process_interest(packet, face)
        elif packet_type == TlvTypes.DATA:
            self._process_data(packet, face)
        elif packet_type == TlvTypes.NACK:
            self._process_nack(packet, face)
        else:  # pragma: no cover - defensive
            raise NDNError(f"{self.name}: unknown packet type {packet_type:#x}")

    # Interest pipeline ------------------------------------------------------

    def _process_interest(self, interest: WirePacket, in_face: Face) -> None:
        self.metrics.counter("interests_received").inc()
        self.tracer.record("interest", "in", name=interest.name, face=in_face.face_id)

        if interest.hop_limit <= 0:
            self.metrics.counter("interests_dropped_hop_limit").inc()
            return

        if self.pit.is_duplicate_nonce(interest):
            self.metrics.counter("interests_duplicate").inc()
            in_face.send(interest.nack(NackReason.DUPLICATE))
            return

        cached = self.cs.find(interest)
        if cached is not None:
            self.metrics.counter("cs_hits").inc()
            self.tracer.record("interest", "cs-hit", name=interest.name)
            in_face.send(cached)
            return

        entry, is_new = self.pit.insert(interest, in_face.face_id)
        if not is_new and entry.out_records:
            # Aggregated: an upstream fetch is already in flight.
            self.metrics.counter("interests_aggregated").inc()
            return

        self._forward_interest(interest, entry, in_face.face_id)

    def _forward_interest(self, interest: WirePacket, entry: PitEntry, in_face_id: int) -> None:
        strategy = self.strategies.find(interest.name)
        if not self._send_upstream(interest, entry, in_face_id, strategy):
            self._reject(interest, NackReason.NO_ROUTE)

    def _send_upstream(
        self,
        interest: WirePacket,
        entry: PitEntry,
        in_face_id: int,
        strategy: Strategy,
        retry: bool = False,
    ) -> bool:
        """Forward ``interest`` (pending as ``entry``) on untried next hop(s).

        The one selection path, shared by the Interest pipeline and the
        Nack pipeline's ``retry``.  Returns False when no next hop is left.
        """
        fib_entry = self.fib.lookup(interest.name)
        if fib_entry is None:
            return False
        # The entry's out-records are the upstreams already tried this
        # exchange; its in-records are the faces waiting for the answer,
        # never sent to (the Interest would bounce between neighbours that
        # learned each other's routes).
        tried = (*entry.out_records, *entry.in_records)
        out_face_ids = strategy.select(interest, fib_entry, in_face_id, tried)
        live = self._live
        if not all(map(live, out_face_ids)):
            # Fail-over belongs to the forwarding plane: tell the strategy
            # which of the entry's hops are down and let it choose again, so
            # a down link is never the answer while a live route exists.
            down = tuple(
                hop.face_id for hop in fib_entry.nexthops if not live(hop.face_id)
            )
            out_face_ids = strategy.select(interest, fib_entry, in_face_id, tried, down)
        if not out_face_ids:
            return False
        forwarded = interest.with_decremented_hop_limit()
        counter, category, event = (
            ("nack_retries", "nack", "retry") if retry
            else ("interests_forwarded", "interest", "out")
        )
        for face_id in out_face_ids:
            self.pit.record_out(forwarded, face_id)
            self.metrics.counter(counter).inc()
            self.tracer.record(category, event, name=interest.name, face=face_id)
            self._faces[face_id].send(forwarded)
        return True

    def _live(self, face_id: int, owed: bool = False) -> Optional[Face]:
        """The attached face ``face_id`` if it is up, else ``None``.

        The liveness test of every pipeline.  ``owed`` marks a packet some
        downstream is waiting for: a down face loses it, counted as a drop
        so experiments report the loss instead of silently eating it.
        """
        face = self._faces.get(face_id)
        if face is None or face.up:
            return face
        if owed:
            face.stats.drops += 1
        return None

    def _reject(self, interest: WirePacket, reason: int) -> None:
        """NACK every downstream face waiting on ``interest`` and drop the entry."""
        entry = self.pit.find_exact(interest)
        downstream = entry.downstream_faces() if entry else []
        self.pit.remove(interest)
        self.metrics.counter("interests_nacked").inc()
        self.tracer.record("interest", "nack", name=interest.name, reason=reason)
        nack = interest.nack(reason) if downstream else None
        for face_id in downstream:
            face = self._live(face_id, owed=True)
            if face is not None:
                face.send(nack)

    # Data pipeline --------------------------------------------------------------

    def _process_data(self, data: WirePacket, in_face: Face) -> None:
        self.metrics.counter("data_received").inc()
        self.tracer.record("data", "in", name=data.name, face=in_face.face_id)

        entry = self.pit.satisfy(data)
        if entry is None:
            self.metrics.counter("data_unsolicited").inc()
            return

        self.cs.insert(data)
        if len(entry.out_records) > 1:
            # The exchange retried: the first upstream choice was wrong and
            # this one was right.  Tell the strategy, so an ownership-aware
            # one can go straight here next time.
            self.strategies.find(data.name).note_answer(data.name, in_face.face_id)
        for face_id in entry.in_records:
            if face_id == in_face.face_id:
                continue
            face = self._live(face_id, owed=True)
            if face is None:
                continue
            self.metrics.counter("data_forwarded").inc()
            self.tracer.record("data", "out", name=data.name, face=face_id)
            face.send(data)

    # Nack pipeline ----------------------------------------------------------------

    def _process_nack(self, nack: WirePacket, in_face: Face) -> None:
        self.metrics.counter("nacks_received").inc()
        self.tracer.record("nack", "in", name=nack.name, reason=nack.reason)
        # The enclosed Interest as a wire view over the Nack's own buffer.
        interest = nack.interest
        entry = self.pit.find_exact(interest)
        if entry is None:
            return
        strategy = self.strategies.find(interest.name)
        # Try an alternative upstream before giving up.
        if self._send_upstream(interest, entry, in_face.face_id, strategy, retry=True):
            return
        # No alternative: propagate the NACK's own wire buffer downstream.
        downstream = entry.downstream_faces()
        self.pit.remove(interest)
        for face_id in downstream:
            if face_id == in_face.face_id:
                continue
            face = self._live(face_id, owed=True)
            if face is None:
                continue
            self.metrics.counter("nacks_forwarded").inc()
            face.send(nack)

    # ------------------------------------------------------------------- misc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Forwarder {self.name} faces={len(self._faces)} fib={len(self.fib)}>"
