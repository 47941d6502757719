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
* :class:`LocalFace` — an application face inside a node (zero or negligible
  delay), used by producers, consumers and the LIDC gateway.

Every endpoint that owns faces must implement the small
:class:`PacketEndpoint` protocol: ``add_face(face) -> int`` and
``receive_packet(packet, face) -> None``, and must declare
``accepts_wire_packets = True``: delivery hands over the
:class:`~repro.ndn.packet.WirePacket` itself and raises for endpoints that
do not opt in.  (The one-release compatibility shim that decoded packets
for legacy endpoints is gone; every in-tree endpoint is wire-aware.)
``send()`` still accepts bare packet objects and wraps them (via the
sender's cached wire form) on entry.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Protocol, Union

from repro.exceptions import NDNError
from repro.ndn.packet import Data, Interest, Nack, WirePacket
from repro.ndn.tlv import TlvTypes
from repro.sim.engine import Environment, Event
from repro.sim.topology import Link

__all__ = [
    "Packet",
    "AnyPacket",
    "PacketEndpoint",
    "FaceStats",
    "Face",
    "LocalFace",
    "NetworkFace",
    "connect",
]

#: Union of every decoded packet type a face can carry.
Packet = Union[Interest, Data, Nack]

#: What ``send()``/``deliver()`` accept: a wire view or a bare packet object.
AnyPacket = Union[WirePacket, Interest, Data, Nack]

# TLV types used for stat dispatch, bound locally for the per-packet hot path.
_INTEREST_TYPE = TlvTypes.INTEREST
_DATA_TYPE = TlvTypes.DATA


class PacketEndpoint(Protocol):
    """Anything that can own faces and receive packets from them.

    Endpoints must set ``accepts_wire_packets = True`` and handle the
    :class:`~repro.ndn.packet.WirePacket` view; delivery to an endpoint
    without that marker raises (the decode-on-delivery compat shim was
    removed once every in-tree endpoint became wire-aware).
    """

    def add_face(self, face: "Face") -> int:  # pragma: no cover - protocol
        ...

    def receive_packet(self, packet: AnyPacket, face: "Face") -> None:  # pragma: no cover
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
        """Counter snapshot for per-face stats reporting."""
        return asdict(self)


class Face:
    """Base face: owned by an endpoint, delivers wire packets to a peer face."""

    def __init__(self, env: Environment, owner: PacketEndpoint, label: str = "") -> None:
        self.env = env
        self.owner = owner
        self.label = label
        self.face_id: int = -1
        self.peer: Optional["Face"] = None
        self.stats = FaceStats()
        self.up = True
        # Resolved once: delivery requires a wire-aware owner (legacy
        # decoded-object delivery raises in deliver()).
        self._owner_accepts_wire = bool(getattr(owner, "accepts_wire_packets", False))

    def attach(self) -> int:
        """Register this face with its owner; records the assigned id."""
        self.face_id = self.owner.add_face(self)
        return self.face_id

    def set_peer(self, peer: "Face") -> None:
        self.peer = peer

    # -- sending ---------------------------------------------------------------

    def send(self, packet: AnyPacket) -> None:
        """Send ``packet`` towards the peer endpoint.

        Bare ``Interest``/``Data``/``Nack`` objects are wrapped into
        :class:`~repro.ndn.packet.WirePacket` views here, constructed once
        from the sender's cached wire form.
        """
        if not self.up:
            # Count the drop before wrapping: no point encoding (and for
            # unsigned Data, signing) a packet that dies right here.
            self.stats.drops += 1
            return
        if self.peer is None:
            raise NDNError(f"face {self.label or self.face_id} has no peer")
        wire_packet = WirePacket.of(packet)
        self.stats.record_out(wire_packet)
        self._transmit(wire_packet)

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

    def deliver(self, packet: AnyPacket) -> None:
        """Called by the peer when a packet arrives on this face."""
        if not self.up:
            self.stats.drops += 1
            return
        if not self._owner_accepts_wire:
            raise NDNError(
                f"endpoint {type(self.owner).__name__!r} on face "
                f"{self.label or self.face_id} does not accept wire packets: "
                "the legacy decoded-object delivery shim was removed; set "
                "accepts_wire_packets = True and read fields off the "
                "WirePacket view (or call .decode() at the endpoint)"
            )
        wire_packet = WirePacket.of(packet)
        self.stats.record_in(wire_packet)
        self.owner.receive_packet(wire_packet, self)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Mark the face down; in-flight packets are dropped on delivery."""
        self.up = False
        if self.peer is not None:
            self.peer.up = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} id={self.face_id} {self.label!r} {'up' if self.up else 'down'}>"


class LocalFace(Face):
    """An in-node application face: delivery costs a fixed small delay."""

    def __init__(
        self,
        env: Environment,
        owner: PacketEndpoint,
        label: str = "",
        delay_s: float = 0.0,
    ) -> None:
        super().__init__(env, owner, label)
        self.delay_s = delay_s

    def _transmit(self, packet: WirePacket) -> None:
        if self.delay_s <= 0:
            peer = self.peer
            assert peer is not None
            peer.deliver(packet)
        else:
            self._deliver_after(self.delay_s, packet)


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
