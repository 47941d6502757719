"""NDN packets: the endpoint objects and the one wire view, in TLV encoding.

The wire format loosely follows the NDN packet format v0.3: enough structure
to round-trip every field the forwarder and LIDC use, while staying compact.

An application builds and reads :class:`Interest` and :class:`Data`
objects.  Everything between two applications handles one type,
:class:`WirePacket`: a view over an encoded buffer that decodes its outer
TLV header when it is built and every other field on first read.  A Nack
has no object form; :meth:`WirePacket.nack` encloses an Interest's buffer,
and a Nack view reads its reason and enclosed Interest.

A :class:`~repro.ndn.name.Name` is its Name TLV-VALUE, so encoding a name
copies its bytes into the packet (:func:`encode_name_value` is those bytes)
and decoding one is a single validating walk over the slice of the wire
(:meth:`Name.from_wire <repro.ndn.name.Name.from_wire>`).
:attr:`WirePacket.name` wraps the same slice that
:attr:`WirePacket.name_bytes` hands the shard dispatcher, so no packet ever
builds a :class:`~repro.ndn.name.Component` in transit.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import TLVDecodeError, VerificationError
from repro.ndn.name import Component, Name
from repro.ndn.tlv import (
    TlvTypes,
    decode_nonneg_int,
    decode_tlv_header,
    encode_nonneg_int,
    encode_tlv,
    scan_tlv_spans,
)

__all__ = [
    "Interest",
    "Data",
    "NackReason",
    "WirePacket",
    "encode_name_value",
]

#: Default Interest lifetime (seconds); mirrors NDN's 4-second default.
DEFAULT_INTEREST_LIFETIME = 4.0

#: Nonce sequence for Interests constructed without an explicit nonce.
#: Real NDN draws nonces from entropy; here they only feed PIT loop/duplicate
#: detection, which needs *uniqueness within a run*, not unpredictability —
#: and ambient entropy would make otherwise-identical simulation runs differ
#: bit-for-bit in every trace and wire buffer (the determinism contract,
#: statically enforced as lint rule RL010).  A process-wide counter gives
#: every Interest a distinct, reproducible nonce; retransmissions construct
#: a new Interest and therefore draw a fresh one.
_NONCE_SEQUENCE = itertools.count(0x5EED0001)


def _next_nonce() -> int:
    return next(_NONCE_SEQUENCE) & 0xFFFFFFFF


class _ContentType:
    """Data packet content types."""

    BLOB = 0
    LINK = 1
    KEY = 2
    NACK = 3


class NackReason:
    """Network-NACK reasons (mirrors NFD)."""

    NONE = 0
    CONGESTION = 50
    DUPLICATE = 100
    NO_ROUTE = 150

    _LABELS = {0: "None", 50: "Congestion", 100: "Duplicate", 150: "NoRoute"}

    @classmethod
    def label(cls, reason: int) -> str:
        return cls._LABELS.get(reason, f"Unknown({reason})")


def encode_name_value(name: Name) -> bytes:
    """The value bytes of a Name TLV: the concatenated component TLVs.

    A :class:`Name` holds exactly these bytes, so this returns them as is.
    They are the canonical byte form of a name on the wire, and therefore
    the key the shard dispatcher caches and hashes on
    (:attr:`WirePacket.name_bytes` is the same bytes sliced out of a
    received buffer).  Because TLV encoding is self-delimiting, name A is a
    prefix of name B exactly when ``encode_name_value(A)`` is a byte-prefix
    of ``encode_name_value(B)``.
    """
    return name._value


def _encode_name(name: Name) -> bytes:
    return encode_tlv(TlvTypes.NAME, encode_name_value(name))


# -- field parsers --------------------------------------------------------------
#
# One parser per packet field, shared by the object decoders and the lazy
# WirePacket accessors, so a forwarder in transit and the endpoint that
# decodes the packet always read the same value.  Each takes the buffer and
# the field's span from scan_tlv_spans (the first occurrence of the field;
# None when it is absent).

_Span = Optional[tuple[int, int, int]]


def _fields(wire: bytes, expected_type: int) -> dict[int, tuple[int, int, int]]:
    """Spans of the top-level fields of a packet that must be ``expected_type``."""
    outer_type, body_start, body_end = decode_tlv_header(wire)
    if outer_type != expected_type:
        raise TLVDecodeError(
            f"expected a packet of TLV type {expected_type:#x}, got {outer_type:#x}"
        )
    return scan_tlv_spans(wire, body_start, body_end)


def _parse_name(buffer: bytes, span: _Span, value: Optional[bytes] = None) -> Name:
    """The Name at ``span``; ``value`` is its TLV-VALUE when already sliced."""
    if span is None:
        raise TLVDecodeError("packet without a Name")
    return Name.from_wire(buffer[span[1]:span[2]] if value is None else value)


def _parse_nonce(buffer: bytes, span: _Span) -> int:
    if span is None:
        return 0
    if span[2] - span[1] != 4:
        raise TLVDecodeError(f"nonce TLV must be 4 bytes, got {span[2] - span[1]}")
    return int.from_bytes(buffer[span[1]:span[2]], "big")


def _parse_ms(buffer: bytes, span: _Span, default: float) -> float:
    """A duration field (InterestLifetime, FreshnessPeriod) in seconds."""
    if span is None:
        return default
    return decode_nonneg_int(buffer[span[1]:span[2]]) / 1000.0


def _parse_hop_limit(buffer: bytes, span: _Span) -> int:
    if span is None:
        return 255
    if span[2] - span[1] != 1:
        raise TLVDecodeError(f"hop limit TLV must be 1 byte, got {span[2] - span[1]}")
    return buffer[span[1]]


def _parse_int(buffer: bytes, span: _Span, default: Optional[int]) -> Optional[int]:
    """A non-negative integer field (ContentType, NackReason, SignatureType)."""
    if span is None:
        return default
    return decode_nonneg_int(buffer[span[1]:span[2]])


def _parse_bytes(buffer: bytes, span: _Span) -> bytes:
    return b"" if span is None else buffer[span[1]:span[2]]


@dataclass
class Interest:
    """An NDN Interest: a named request for data.

    LIDC encodes computation requests as Interests whose names carry the
    application, resource requirements and dataset identifiers.
    """

    name: Name
    can_be_prefix: bool = False
    must_be_fresh: bool = False
    nonce: int = field(default_factory=_next_nonce)
    lifetime: float = DEFAULT_INTEREST_LIFETIME
    hop_limit: int = 255
    application_parameters: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.name, Name):
            self.name = Name(self.name)
        if self.lifetime <= 0:
            raise ValueError(f"interest lifetime must be positive, got {self.lifetime}")
        if not (0 <= self.hop_limit <= 255):
            raise ValueError(f"hop limit must be in [0, 255], got {self.hop_limit}")
        # Lazily-cached wire form.  An Interest is not changed once sent
        # (forwarding patches a copy of its wire), so each instance encodes
        # at most once no matter how many faces record its size.
        self._wire: "bytes | None" = None

    # -- matching -----------------------------------------------------------------

    def matches_data(self, data: "Data") -> bool:
        """True when ``data`` satisfies this Interest (exact or prefix match)."""
        if self.can_be_prefix:
            return self.name.is_prefix_of(data.name)
        return self.name == data.name

    # -- wire encoding ---------------------------------------------------------------

    def encode(self) -> bytes:
        if self._wire is not None:
            return self._wire
        body = _encode_name(self.name)
        if self.can_be_prefix:
            body += encode_tlv(TlvTypes.CAN_BE_PREFIX, b"")
        if self.must_be_fresh:
            body += encode_tlv(TlvTypes.MUST_BE_FRESH, b"")
        body += encode_tlv(TlvTypes.NONCE, self.nonce.to_bytes(4, "big"))
        # round(), not int(): truncation would re-encode a decoded packet to
        # different bytes (ms/1000*1000 can land just below the integer).
        # Floor at 1 ms: a 0 ms lifetime on the wire would be rejected by the
        # endpoint's decode even though every transit hop accepted it.
        body += encode_tlv(
            TlvTypes.INTEREST_LIFETIME,
            encode_nonneg_int(max(1, round(self.lifetime * 1000))),
        )
        body += encode_tlv(TlvTypes.HOP_LIMIT, bytes([self.hop_limit]))
        if self.application_parameters:
            body += encode_tlv(TlvTypes.APPLICATION_PARAMETERS, self.application_parameters)
        self._wire = encode_tlv(TlvTypes.INTEREST, body)
        return self._wire

    @classmethod
    def decode(cls, wire: bytes) -> "Interest":
        spans = _fields(wire, TlvTypes.INTEREST)
        try:
            return cls(
                name=_parse_name(wire, spans.get(TlvTypes.NAME)),
                can_be_prefix=TlvTypes.CAN_BE_PREFIX in spans,
                must_be_fresh=TlvTypes.MUST_BE_FRESH in spans,
                nonce=_parse_nonce(wire, spans.get(TlvTypes.NONCE)),
                lifetime=_parse_ms(
                    wire, spans.get(TlvTypes.INTEREST_LIFETIME), DEFAULT_INTEREST_LIFETIME
                ),
                hop_limit=_parse_hop_limit(wire, spans.get(TlvTypes.HOP_LIMIT)),
                application_parameters=_parse_bytes(
                    wire, spans.get(TlvTypes.APPLICATION_PARAMETERS)
                ),
            )
        except ValueError as exc:  # a 0 ms lifetime: well-formed TLV, invalid Interest
            raise TLVDecodeError(str(exc)) from exc

    @property
    def size(self) -> int:
        """Wire size in bytes (used by the link transfer model)."""
        return len(self.encode())

    def __repr__(self) -> str:
        return f"Interest({self.name.to_uri()!r}, nonce={self.nonce:#010x})"


#: SignatureType DigestSha256: the signature is the SHA-256 of the signed portion.
_DIGEST_SHA256 = 0
#: The SignatureInfo every Data carries ("NDN inherently secures data").
_SIGNATURE_INFO = encode_tlv(
    TlvTypes.SIGNATURE_INFO,
    encode_tlv(TlvTypes.SIGNATURE_TYPE, encode_nonneg_int(_DIGEST_SHA256)),
)


@dataclass
class Data:
    """An NDN Data packet: named content with a DigestSha256 signature."""

    name: Name
    content: bytes = b""
    content_type: int = _ContentType.BLOB
    freshness_period: float = 0.0
    final_block_id: Optional[Component] = None
    signature_value: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.name, Name):
            self.name = Name(self.name)
        if isinstance(self.content, str):
            self.content = self.content.encode("utf-8")
        # Lazily-cached wire form: the first encode builds it, signing an
        # unsigned packet on the way, and every later one returns it.
        self._wire: "bytes | None" = None

    # -- signing ------------------------------------------------------------------

    def _signed_portion(self) -> bytes:
        body = _encode_name(self.name)
        body += encode_tlv(TlvTypes.CONTENT_TYPE, encode_nonneg_int(self.content_type))
        # round(), not int(): a decoded Data must re-encode (and re-verify)
        # to the exact bytes it arrived as.
        body += encode_tlv(
            TlvTypes.FRESHNESS_PERIOD, encode_nonneg_int(round(self.freshness_period * 1000))
        )
        if self.final_block_id is not None:
            body += encode_tlv(TlvTypes.FINAL_BLOCK_ID, self.final_block_id.value)
        body += encode_tlv(TlvTypes.CONTENT, self.content)
        return body

    def verify(self) -> bool:
        """Whether the signature is the SHA-256 digest of the signed portion.

        Raises :class:`VerificationError` for a packet never encoded (and so
        never signed).
        """
        if not self.signature_value:
            raise VerificationError(f"data {self.name} is unsigned")
        return hashlib.sha256(self._signed_portion()).digest() == self.signature_value

    # -- wire encoding --------------------------------------------------------------

    def encode(self) -> bytes:
        if self._wire is not None:
            return self._wire
        body = self._signed_portion()
        if not self.signature_value:
            self.signature_value = hashlib.sha256(body).digest()
        self._wire = encode_tlv(
            TlvTypes.DATA,
            body + _SIGNATURE_INFO + encode_tlv(TlvTypes.SIGNATURE_VALUE, self.signature_value),
        )
        return self._wire

    @classmethod
    def decode(cls, wire: bytes) -> "Data":
        spans = _fields(wire, TlvTypes.DATA)
        info = spans.get(TlvTypes.SIGNATURE_INFO)
        signature_type = None if info is None else _parse_int(
            wire, scan_tlv_spans(wire, info[1], info[2]).get(TlvTypes.SIGNATURE_TYPE), None
        )
        if signature_type != _DIGEST_SHA256:
            # Only DigestSha256 is ever encoded, so a packet signed any other
            # way (or not at all) could not re-encode to the bytes it arrived as.
            raise TLVDecodeError(f"Data signature type {signature_type} is not DigestSha256")
        final_block = spans.get(TlvTypes.FINAL_BLOCK_ID)
        if final_block is not None and final_block[1] == final_block[2]:
            raise TLVDecodeError("empty FinalBlockId")
        return cls(
            name=_parse_name(wire, spans.get(TlvTypes.NAME)),
            content=_parse_bytes(wire, spans.get(TlvTypes.CONTENT)),
            content_type=_parse_int(wire, spans.get(TlvTypes.CONTENT_TYPE), _ContentType.BLOB),
            freshness_period=_parse_ms(wire, spans.get(TlvTypes.FRESHNESS_PERIOD), 0.0),
            final_block_id=(
                None if final_block is None else Component(wire[final_block[1]:final_block[2]])
            ),
            signature_value=_parse_bytes(wire, spans.get(TlvTypes.SIGNATURE_VALUE)),
        )

    @property
    def size(self) -> int:
        """Wire size in bytes."""
        return len(self.encode())

    def content_text(self) -> str:
        """The content decoded as UTF-8 (convenience for JSON payloads)."""
        return self.content.decode("utf-8")

    def __repr__(self) -> str:
        return f"Data({self.name.to_uri()!r}, {len(self.content)} bytes)"


class WirePacket:
    """A zero-copy, lazy-decode view over one encoded NDN packet.

    This is the one packet type of the transport plane: faces carry it,
    forwarders and shards read it, and its buffer is what crosses a link.
    The constructor decodes the outer TLV header, so :attr:`packet_type`
    is an attribute and a malformed or overrunning outer TLV raises
    :class:`~repro.exceptions.TLVDecodeError` right there.  Every other
    header question a forwarder asks in transit — ``name``,
    ``can_be_prefix``, ``must_be_fresh``, ``nonce``, ``hop_limit``,
    ``freshness_period``, a Nack's ``reason`` — is answered by a single
    shallow TLV walk over the body, caching byte spans rather than
    materialising packet objects.  :meth:`decode` builds the full
    :class:`Interest` or :class:`Data` on demand (application endpoints do
    this; intermediate hops never need to), and :attr:`wire` returns the
    original buffer for re-transmit, so forwarding never re-encodes.  A
    Nack exists only as a view: :meth:`nack` builds one around an
    Interest's buffer, and :attr:`reason` and :attr:`interest` read it.

    A view built from an endpoint's own packet (:meth:`of`, which
    ``Face.send`` calls) keeps a reference to it, making :meth:`decode`
    free on the same node; a view built from raw bytes parses at most
    once.  ``WirePacket.wire_decodes`` counts the wire-level full decodes
    that actually ran — benchmarks use it to assert that transit stays
    bytes-only.
    """

    __slots__ = (
        "packet_type",
        "_buf",
        "_start",
        "_end",
        "_wire",
        "_decoded",
        "_body_start",
        "_body_end",
        "_spans",
        "_name",
        "_name_tlv",
        "_nack_interest",
    )

    #: Class-level count of full decodes that had to parse the wire
    #: (cached-object returns are free and not counted).
    wire_decodes: int = 0
    #: Class-level count of shallow TLV span walks that actually scanned a
    #: buffer (memoised re-reads are free and not counted).  The shard
    #: dispatcher's no-rescan invariant is asserted against this.
    span_scans: int = 0

    def __init__(
        self,
        wire: bytes,
        decoded: "Interest | Data | None" = None,
        _start: int = 0,
        _end: Optional[int] = None,
    ) -> None:
        end = len(wire) if _end is None else _end
        packet_type, body_start, body_end = decode_tlv_header(wire, _start)
        if body_end > end:
            raise TLVDecodeError("packet TLV extends past the wire buffer")
        #: The outer TLV type (``TlvTypes.INTEREST`` / ``DATA`` / ``NACK``).
        self.packet_type = packet_type
        self._buf = wire
        self._start = _start
        self._end = end
        self._wire: Optional[bytes] = wire if (_start == 0 and end == len(wire)) else None
        self._decoded = decoded
        self._body_start = body_start
        self._body_end = body_end
        self._spans: "dict[int, tuple[int, int, int]] | None" = None
        self._name: Optional[Name] = None
        self._name_tlv: Optional[bytes] = None
        self._nack_interest: "WirePacket | None" = None

    @classmethod
    def of(cls, packet: "Interest | Data") -> "WirePacket":
        """Wrap an endpoint's own ``packet`` as a wire view.

        Uses the packet's cached wire form and remembers the object, so a
        later :meth:`decode` on the same node costs nothing.
        """
        return cls(packet.encode(), decoded=packet)

    # -- buffer access --------------------------------------------------------

    @property
    def wire(self) -> bytes:
        """The encoded packet bytes (the buffer a face transmits)."""
        if self._wire is None:
            self._wire = self._buf[self._start:self._end]
        return self._wire

    @property
    def size(self) -> int:
        """Wire size in bytes — ``len(wire)`` with no encoding walk."""
        return self._end - self._start

    # -- lazy field parsing ---------------------------------------------------

    def _scan(self) -> dict[int, tuple[int, int, int]]:
        """Byte spans of the packet's top-level TLV fields (one shallow walk)."""
        if self._spans is None:
            self._spans = scan_tlv_spans(self._buf, self._body_start, self._body_end)
            WirePacket.span_scans += 1
        return self._spans

    def _require(self, expected: int, what: str) -> None:
        if self.packet_type != expected:
            raise TLVDecodeError(
                f"{what} requested from a packet of TLV type {self.packet_type:#x}"
            )

    @property
    def is_interest(self) -> bool:
        return self.packet_type == TlvTypes.INTEREST

    @property
    def is_data(self) -> bool:
        return self.packet_type == TlvTypes.DATA

    @property
    def name(self) -> Name:
        """The packet name (a Nack exposes its enclosed Interest's name).

        One validating walk over the Name TLV's value, which the name then
        holds as its bytes: the :attr:`name_bytes` slice when that is already
        taken, a fresh slice of the buffer otherwise.
        """
        if self._name is None:
            if self._decoded is not None:
                self._name = self._decoded.name
            elif self.packet_type == TlvTypes.NACK:
                self._name = self.interest.name
            else:
                self._name = _parse_name(
                    self._buf, self._scan().get(TlvTypes.NAME), self._name_tlv
                )
        return self._name

    @property
    def name_bytes(self) -> bytes:
        """The packet name as canonical wire bytes (the Name TLV's value).

        This is the shard dispatcher's key: a single memoised slice of the
        buffer, so repeat dispatch of the same view neither re-walks TLV
        spans nor materialises :class:`~repro.ndn.name.Name` components.  A
        Nack exposes its enclosed Interest's name bytes.  Equal to
        :func:`encode_name_value` of :attr:`name`.

        When the span table is not already populated, the slice is taken
        from the packet's *first* body TLV (the Name leads both Interests
        and Data in this codec, as in NDN v0.3) — one header decode, no
        full span walk; packets that deviate fall back to the scan.
        """
        if self._name_tlv is None:
            if self.packet_type == TlvTypes.NACK:
                self._name_tlv = self.interest.name_bytes
                return self._name_tlv
            if self._spans is None:
                first_type, value_start, value_end = decode_tlv_header(
                    self._buf, self._body_start
                )
                if first_type == TlvTypes.NAME and value_end <= self._body_end:
                    self._name_tlv = self._buf[value_start:value_end]
                    return self._name_tlv
            span = self._scan().get(TlvTypes.NAME)
            if span is None:
                raise TLVDecodeError("packet without a Name")
            self._name_tlv = self._buf[span[1]:span[2]]
        return self._name_tlv

    @property
    def can_be_prefix(self) -> bool:
        if self._decoded is not None:
            return self._decoded.can_be_prefix
        self._require(TlvTypes.INTEREST, "can_be_prefix")
        return TlvTypes.CAN_BE_PREFIX in self._scan()

    @property
    def must_be_fresh(self) -> bool:
        if self._decoded is not None:
            return self._decoded.must_be_fresh
        self._require(TlvTypes.INTEREST, "must_be_fresh")
        return TlvTypes.MUST_BE_FRESH in self._scan()

    @property
    def nonce(self) -> int:
        if self._decoded is not None:
            return self._decoded.nonce
        self._require(TlvTypes.INTEREST, "nonce")
        return _parse_nonce(self._buf, self._scan().get(TlvTypes.NONCE))

    @property
    def lifetime(self) -> float:
        if self._decoded is not None:
            return self._decoded.lifetime
        self._require(TlvTypes.INTEREST, "lifetime")
        return _parse_ms(
            self._buf, self._scan().get(TlvTypes.INTEREST_LIFETIME), DEFAULT_INTEREST_LIFETIME
        )

    @property
    def hop_limit(self) -> int:
        if self._decoded is not None:
            return self._decoded.hop_limit
        self._require(TlvTypes.INTEREST, "hop_limit")
        return _parse_hop_limit(self._buf, self._scan().get(TlvTypes.HOP_LIMIT))

    @property
    def application_parameters(self) -> bytes:
        if self._decoded is not None:
            return self._decoded.application_parameters
        self._require(TlvTypes.INTEREST, "application_parameters")
        return _parse_bytes(self._buf, self._scan().get(TlvTypes.APPLICATION_PARAMETERS))

    @property
    def freshness_period(self) -> float:
        if self._decoded is not None:
            return self._decoded.freshness_period
        self._require(TlvTypes.DATA, "freshness_period")
        return _parse_ms(self._buf, self._scan().get(TlvTypes.FRESHNESS_PERIOD), 0.0)

    @property
    def reason(self) -> int:
        """A Nack's reason code (``NackReason.NONE`` when absent)."""
        self._require(TlvTypes.NACK, "reason")
        return _parse_int(self._buf, self._scan().get(TlvTypes.NACK_REASON), NackReason.NONE)

    @property
    def interest(self) -> "WirePacket":
        """A Nack's enclosed Interest as a wire view sharing this buffer."""
        if self._nack_interest is None:
            self._require(TlvTypes.NACK, "enclosed interest")
            span = self._scan().get(TlvTypes.INTEREST)
            if span is None:
                raise TLVDecodeError("Nack without an enclosed Interest")
            self._nack_interest = WirePacket(self._buf, _start=span[0], _end=span[2])
        return self._nack_interest

    # -- derived packets ------------------------------------------------------

    def with_decremented_hop_limit(self) -> "WirePacket":
        """The per-hop Interest copy, produced by patching one wire byte.

        The hop-limit TLV's value byte is rewritten in a copy of the buffer
        — one memcpy, no TLV re-walk — and this view's parse is handed to
        the clone so downstream FIB/PIT lookups stay free.  An Interest
        without a HopLimit TLV is forwarded as these same bytes: like NFD,
        a hop decrements a HopLimit only where one is present.
        """
        self._require(TlvTypes.INTEREST, "hop limit decrement")
        span = self._scan().get(TlvTypes.HOP_LIMIT)
        if span is None:
            return self
        patched = bytearray(self.wire)
        if _parse_hop_limit(self._buf, span) > 0:  # the parser checks the width
            patched[span[1] - self._start] -= 1
        return self._carry_parse(WirePacket(bytes(patched)), self._start)

    def nack(self, reason: int = NackReason.NONE) -> "WirePacket":
        """A Nack wire packet enclosing this Interest's buffer verbatim."""
        self._require(TlvTypes.INTEREST, "nack construction")
        body = encode_tlv(TlvTypes.NACK_REASON, encode_nonneg_int(reason)) + self.wire
        view = WirePacket(encode_tlv(TlvTypes.NACK, body))
        view._nack_interest = self
        return view

    def detached_view(self) -> "WirePacket":
        """A fresh bytes-only view of the same bytes of the same buffer.

        Nothing is copied: the clone covers this view's ``_start``/``_end``
        of its buffer (a sub-view stays a sub-view) and carries its span
        table, its memoised name — or the decoded object's name — and its
        name bytes, so reading the clone costs no span walk.  It carries no
        decoded object and none of this view's identity: decoding the clone
        can never contaminate this view (or vice versa).  The span dict is
        shared and treated as immutable after the first scan.  This is what
        crosses a shard boundary, what the dispatcher's hot cache serves and
        what the file server hands out of its segment cache.
        """
        view = WirePacket(self._buf, _start=self._start, _end=self._end)
        view._wire = self._wire
        return self._carry_parse(view, 0)

    def _carry_parse(self, clone: "WirePacket", shift: int) -> "WirePacket":
        """Hand this view's parse to ``clone``, a view of the same layout
        whose buffer offsets sit ``shift`` bytes lower."""
        if self._spans is not None:
            clone._spans = self._spans if shift == 0 else {
                t: (a - shift, b - shift, c - shift)
                for t, (a, b, c) in self._spans.items()
            }
        clone._name = self._name if self._name is not None else (
            self._decoded.name if self._decoded is not None else None
        )
        clone._name_tlv = self._name_tlv
        return clone

    # -- full decode ----------------------------------------------------------

    def decode(self) -> "Interest | Data":
        """Materialise the full Interest or Data (cached; parses at most once).

        A Nack has no object form: read it through :attr:`reason` and
        :attr:`interest`.
        """
        if self._decoded is None:
            wire = self.wire
            if self.packet_type == TlvTypes.INTEREST:
                decoded: "Interest | Data" = Interest.decode(wire)
            elif self.packet_type == TlvTypes.DATA:
                decoded = Data.decode(wire)
            else:
                raise TLVDecodeError(f"no packet object for TLV type {self.packet_type:#x}")
            # Re-transmitting the decoded object must not re-encode.
            decoded._wire = wire
            self._decoded = decoded
            WirePacket.wire_decodes += 1
        return self._decoded

    @property
    def is_decoded(self) -> bool:
        """Whether a full packet object is already attached to this view."""
        return self._decoded is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = {
            TlvTypes.INTEREST: "Interest",
            TlvTypes.DATA: "Data",
            TlvTypes.NACK: "Nack",
        }.get(self.packet_type, f"type={self.packet_type:#x}")
        return f"WirePacket<{kind}>({self.size} bytes)"
