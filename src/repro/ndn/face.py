"""Faces: the forwarder's attachment points, carrying wire buffers.

A *face* is the NDN generalisation of an interface: packets are sent out of a
face and arrive on the peer face at the other end.  The transport contract is
**bytes-first**: ``send()`` and ``deliver()`` carry
:class:`~repro.ndn.packet.WirePacket` views — the encoded buffer plus a lazy
header parser — so forwarding a packet across a node never re-encodes it and
intermediate hops never materialise full packet objects.  Link sizing and the
byte counters both read ``len(wire)`` directly.

Two kinds of face are provided:

* :class:`NetworkFace` — one end of a point-to-point link between two packet
  endpoints (forwarders, gateways, clients); delivery is delayed by the link's
  propagation latency and serialisation time for the wire buffer.
* :class:`LocalFace` — an application face inside a node, used by
  producers, consumers and the LIDC gateway; it hands a packet straight to
  its peer.

Every endpoint that owns faces implements the small :class:`PacketEndpoint`
protocol: ``add_face(face) -> int`` and ``receive_packet(packet, face) ->
None``; delivery hands over the :class:`~repro.ndn.packet.WirePacket`
itself.  ``send()`` is the one place an application's own ``Interest`` or
``Data`` object becomes a view (:meth:`WirePacket.of
<repro.ndn.packet.WirePacket.of>`, over the object's cached wire form);
every other packet a face carries already is one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Protocol

from repro.exceptions import NDNError
from repro.ndn.packet import Data, Interest, WirePacket
from repro.ndn.tlv import TlvTypes
from repro.sim.engine import Environment, Event
from repro.sim.topology import Link

__all__ = [
    "PacketEndpoint",
    "FaceStats",
    "Face",
    "LocalFace",
    "NetworkFace",
    "connect",
]

# TLV types used for stat dispatch, bound locally for the per-packet hot path.
_INTEREST_TYPE = TlvTypes.INTEREST
_DATA_TYPE = TlvTypes.DATA


class PacketEndpoint(Protocol):
    """Anything that can own faces and receive the
    :class:`~repro.ndn.packet.WirePacket` views they deliver."""

    def add_face(self, face: "Face") -> int:  # pragma: no cover - protocol
        ...

    def receive_packet(self, packet: WirePacket, face: "Face") -> None:  # pragma: no cover
        ...


@dataclass
class FaceStats:
    """Per-face packet, byte and drop counters.

    Byte counters are ``len(wire)`` of the transiting buffer — no encoder
    walk.  ``drops`` counts packets discarded because the face was down at
    send or delivery time, so experiments can report loss instead of
    silently eating packets.
    """

    interests_out: int = 0
    interests_in: int = 0
    data_out: int = 0
    data_in: int = 0
    nacks_out: int = 0
    nacks_in: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    drops: int = 0

    def record_out(self, packet: WirePacket) -> None:
        self.bytes_out += packet.size
        packet_type = packet.packet_type
        if packet_type == _INTEREST_TYPE:
            self.interests_out += 1
        elif packet_type == _DATA_TYPE:
            self.data_out += 1
        else:
            self.nacks_out += 1

    def record_in(self, packet: WirePacket) -> None:
        self.bytes_in += packet.size
        packet_type = packet.packet_type
        if packet_type == _INTEREST_TYPE:
            self.interests_in += 1
        elif packet_type == _DATA_TYPE:
            self.data_in += 1
        else:
            self.nacks_in += 1

    def as_dict(self) -> dict[str, int]:
        """Every counter by name (the shard-boundary ledger reads it)."""
        return asdict(self)


class Face:
    """Base face: owned by an endpoint, delivers wire packets to a peer face."""

    stats: FaceStats

    def __init__(self, env: Environment, owner: PacketEndpoint, label: str = "") -> None:
        self.env = env
        self.owner = owner
        self.label = label
        self.face_id: int = -1
        self.peer: Optional["Face"] = None
        self.stats = FaceStats()
        self.up = True

    def attach(self) -> int:
        """Register this face with its owner; records the assigned id."""
        self.face_id = self.owner.add_face(self)
        return self.face_id

    def set_peer(self, peer: "Face") -> None:
        self.peer = peer

    # -- sending ---------------------------------------------------------------

    def send(self, packet: "Interest | Data | WirePacket") -> None:
        """Send ``packet`` towards the peer endpoint.

        An application's ``Interest`` or ``Data`` object is wrapped into a
        :class:`~repro.ndn.packet.WirePacket` view here, constructed once
        from its cached wire form; a view is sent as it is.
        """
        if not self.up:
            # Count the drop before wrapping: no point encoding (and for
            # unsigned Data, signing) a packet that dies right here.
            self.stats.drops += 1
            return
        if self.peer is None:
            raise NDNError(f"face {self.label or self.face_id} has no peer")
        if not isinstance(packet, WirePacket):
            packet = WirePacket.of(packet)
        self.stats.record_out(packet)
        self._transmit(packet)

    def _transmit(self, packet: WirePacket) -> None:
        raise NotImplementedError

    def _deliver_after(self, delay: float, packet: WirePacket) -> None:
        """Hand ``packet`` to the peer ``delay`` simulated seconds from now.

        One :class:`~repro.sim.engine.Timeout` carrying the packet, with the
        peer's arrival hook as its callback — no per-packet process.  An
        exception raised by the receiving endpoint therefore propagates out
        of ``Environment.step()``/``run()`` to whoever drives the simulation
        instead of being parked in ``unhandled_failures``.
        """
        peer = self.peer
        assert peer is not None
        self.env.timeout(delay, packet).callbacks.append(peer._arrive)

    def _arrive(self, event: Event) -> None:
        self.deliver(event.value)

    def deliver(self, packet: WirePacket) -> None:
        """Called by the peer when a packet arrives on this face."""
        if not self.up:
            self.stats.drops += 1
            return
        self.stats.record_in(packet)
        self.owner.receive_packet(packet, self)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Mark the face down; in-flight packets are dropped on delivery."""
        self.up = False
        if self.peer is not None:
            self.peer.up = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} id={self.face_id} {self.label!r} {'up' if self.up else 'down'}>"


class LocalFace(Face):
    """An in-node application face: hands a packet straight to its peer."""

    def _transmit(self, packet: WirePacket) -> None:
        peer = self.peer
        assert peer is not None
        peer.deliver(packet)


class NetworkFace(Face):
    """A face across a network link with latency and bandwidth."""

    def __init__(
        self,
        env: Environment,
        owner: PacketEndpoint,
        link: Optional[Link] = None,
        label: str = "",
    ) -> None:
        super().__init__(env, owner, label)
        self.link = link or Link("a", "b", latency_s=0.001, bandwidth_bps=1e9)

    def _transmit(self, packet: WirePacket) -> None:
        self._deliver_after(self.link.transfer_time_packet(packet), packet)


def connect(
    env: Environment,
    endpoint_a: PacketEndpoint,
    endpoint_b: PacketEndpoint,
    link: Optional[Link] = None,
    label: str = "",
    face_cls: type = NetworkFace,
) -> tuple[Face, Face]:
    """Create a pair of peered faces between two endpoints.

    ``link`` is passed through to :class:`NetworkFace` and any subclass of
    it; face classes without a link model (e.g. :class:`LocalFace`) ignore
    it.  Returns ``(face_on_a, face_on_b)``; both are already attached to
    their owners and peered with each other.
    """
    if isinstance(face_cls, type) and issubclass(face_cls, NetworkFace):
        face_a: Face = face_cls(env, endpoint_a, link=link, label=f"{label}:a")
        face_b: Face = face_cls(env, endpoint_b, link=link, label=f"{label}:b")
    else:
        face_a = face_cls(env, endpoint_a, label=f"{label}:a")
        face_b = face_cls(env, endpoint_b, label=f"{label}:b")
    face_a.set_peer(face_b)
    face_b.set_peer(face_a)
    face_a.attach()
    face_b.attach()
    return face_a, face_b
