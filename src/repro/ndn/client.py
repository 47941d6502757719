"""Consumer and producer helpers.

:class:`Consumer` is the client-side endpoint used by workflows and by the
LIDC client library: it expresses Interests into a forwarder and completes an
event with the returned Data (or fails it with a timeout / NACK error).

:class:`Producer` is the application-side helper used by the data lake, the
file server and the LIDC gateway: it serves a namespace either from a static
content store or from a request handler, signing everything it emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.exceptions import InterestNacked, InterestTimeout, NDNError
from repro.ndn.face import AnyPacket, Face, LocalFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, InterestLike, Nack, NackReason, WirePacket
from repro.ndn.security import DigestSigner, HmacSigner
from repro.ndn.segmentation import reassemble, segment_content
from repro.ndn.tlv import TlvTypes
from repro.sim.engine import Environment, Event
from repro.sim.rng import SeededRNG

__all__ = ["Consumer", "Producer", "PendingInterest", "RetryPolicy"]


@dataclass(slots=True, frozen=True)
class RetryPolicy:
    """How a consumer self-heals one Interest exchange.

    Retransmissions back off exponentially from ``initial_backoff_s`` by
    ``multiplier`` up to ``max_backoff_s``, with a uniform jitter of up to
    ``jitter`` x the current backoff drawn from the consumer's seeded RNG
    ("retry-jitter" stream) — deterministic under a fixed seed, decorrelated
    across concurrent sessions.  ``deadline_s`` bounds the whole exchange
    (first transmission to final verdict); once the budget is spent the
    exchange fails even if retries remain.  ``retry_nacks`` additionally
    retransmits on retriable Nacks (NoRoute / Congestion — transient
    routing states) instead of failing on first refusal.
    """

    max_retries: int = 3
    initial_backoff_s: float = 0.0
    multiplier: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.0
    deadline_s: Optional[float] = None
    retry_nacks: bool = False
    retriable_reasons: tuple = (NackReason.NO_ROUTE, NackReason.CONGESTION)

    def backoff_s(self, attempt: int, rng: Optional[SeededRNG] = None) -> float:
        """Backoff before retransmission number ``attempt`` (1-based)."""
        if self.initial_backoff_s <= 0.0:
            return 0.0
        base = self.initial_backoff_s * (self.multiplier ** max(0, attempt - 1))
        base = min(base, self.max_backoff_s)
        if self.jitter > 0.0 and rng is not None:
            base += rng.uniform(0.0, self.jitter * base, stream="retry-jitter")
        return base

    def should_retry_nack(self, reason: int) -> bool:
        return self.retry_nacks and reason in self.retriable_reasons


#: What ``retry_policy=None`` means: one transmission, no retransmission.
NO_RETRY = RetryPolicy(max_retries=0)


@dataclass(slots=True)
class PendingInterest:
    """Book-keeping for one in-flight Interest expressed by a consumer.

    Slotted (lint rule RL006): a client driving many concurrent sessions
    holds one of these per in-flight Interest.
    """

    interest: Interest
    completion: Event
    sent_at: float
    #: Retry policy governing this exchange.
    policy: RetryPolicy
    retries_left: int = 0
    attempts: int = 1
    satisfied: bool = field(default=False)
    #: Time of the first transmission (the deadline budget anchor).
    first_sent_at: float = 0.0
    #: Per-cycle wake event: a retriable Nack triggers it so the watchdog
    #: retransmits immediately instead of waiting out the lifetime.
    wake: Optional[Event] = None
    #: Reason code of the most recent Nack (for the final typed error).
    nack_reason: Optional[int] = None


class Consumer:
    """An application endpoint that expresses Interests through a forwarder."""

    #: Receive wire views from faces; Data is decoded here — at the one
    #: endpoint that actually consumes the content — not in transit.
    accepts_wire_packets = True

    def __init__(
        self,
        env: Environment,
        forwarder: Forwarder,
        name: str = "consumer",
        link=None,
        rng: Optional[SeededRNG] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.forwarder = forwarder
        #: Entropy for retry jitter; seeded from the consumer name so two
        #: consumers never share a jitter sequence yet replays are exact.
        self._rng = rng or SeededRNG(sum(name.encode("utf-8")))
        self._pending: dict[Name, list[PendingInterest]] = {}
        #: Number of in-flight Interests with ``can_be_prefix``; kept so the
        #: Data path can skip the full prefix scan when (as is typical for
        #: many concurrent job sessions) every pending Interest is exact-match.
        self._prefix_pending = 0
        self._faces: list[Face] = []
        # Connect to the forwarder over a local (or provided) link.
        if link is None:
            self.face, self._fwd_face = connect(
                env, self, forwarder, label=f"{name}<->{forwarder.name}", face_cls=LocalFace
            )
        else:
            self.face, self._fwd_face = connect(
                env, self, forwarder, link=link, label=f"{name}<->{forwarder.name}"
            )
        self.interests_sent = 0
        self.data_received = 0
        self.nacks_received = 0
        self.timeouts = 0

    # -- endpoint protocol ------------------------------------------------------

    def add_face(self, face: Face) -> int:
        self._faces.append(face)
        return len(self._faces)

    def receive_packet(self, packet: AnyPacket, face: Face) -> None:
        wire_packet = WirePacket.of(packet)
        packet_type = wire_packet.packet_type
        if packet_type == TlvTypes.DATA:
            # The consumer is the content's destination: this is where the
            # (at most one) full decode of a wire-borne packet belongs.
            self._on_data(wire_packet.decode())
        elif packet_type == TlvTypes.NACK:
            # Nack handling needs only the enclosed name and the reason code,
            # both lazily available on the view.
            self._on_nack(wire_packet)
        # Consumers ignore incoming Interests.

    # -- expressing interests ------------------------------------------------------

    def express_interest(
        self,
        name: "Name | str | Interest",
        lifetime: Optional[float] = None,
        can_be_prefix: bool = False,
        must_be_fresh: bool = False,
        application_parameters: bytes = b"",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> Event:
        """Send an Interest; returns an event completing with the Data.

        The event fails with :class:`InterestTimeout` if no Data arrives
        within the Interest lifetime (after the policy's retransmissions) or
        with :class:`InterestNacked` if the network rejects it.

        ``retry_policy`` supplies the retry budget, the backoff between
        retransmissions, the deadline of the whole exchange and whether
        retriable Nacks are retransmitted; ``None`` means :data:`NO_RETRY`.
        """
        if isinstance(name, Interest):
            interest = name
        else:
            interest = Interest(
                name=Name(name),
                can_be_prefix=can_be_prefix,
                must_be_fresh=must_be_fresh,
                lifetime=lifetime if lifetime is not None else 4.0,
                application_parameters=application_parameters,
            )
        policy = retry_policy if retry_policy is not None else NO_RETRY
        completion = self.env.event(name="fetch")
        pending = PendingInterest(
            interest=interest,
            completion=completion,
            sent_at=self.env.now,
            policy=policy,
            retries_left=policy.max_retries,
            first_sent_at=self.env.now,
        )
        self._pending.setdefault(interest.name, []).append(pending)
        if interest.can_be_prefix:
            self._prefix_pending += 1
        # The wake event exists before the first transmission: a Nack that
        # comes back synchronously (zero-delay local faces) must still be
        # able to trip the watchdog's first cycle.
        pending.wake = self.env.event(name="retry")
        self._send(pending)
        self.env.process(self._watchdog(pending), name="watchdog")
        return completion

    def _send(self, pending: PendingInterest) -> None:
        self.interests_sent += 1
        self.face.send(pending.interest)

    def _deadline_left(self, pending: PendingInterest) -> bool:
        deadline_s = pending.policy.deadline_s
        return deadline_s is None or (self.env.now - pending.first_sent_at) < deadline_s

    def _fail_pending(self, pending: PendingInterest, nacked: bool) -> None:
        self._forget(pending)
        if pending.completion.triggered:
            return
        if nacked:
            reason = pending.nack_reason if pending.nack_reason is not None else NackReason.NONE
            pending.completion.fail(
                InterestNacked(pending.interest.name, NackReason.label(reason))
            )
        else:
            self.timeouts += 1
            pending.completion.fail(
                InterestTimeout(pending.interest.name, pending.interest.lifetime)
            )

    def _watchdog(self, pending: PendingInterest):
        while True:
            if pending.wake is None:  # pragma: no cover - armed at express time
                pending.wake = self.env.event(name="retry")
            if not pending.wake.triggered:
                # A wake already tripped (a Nack delivered synchronously,
                # before this cycle started) falls straight through to the
                # retry logic instead of being discarded.
                yield self.env.any_of(
                    [self.env.timeout(pending.interest.lifetime), pending.wake]
                )
            if pending.satisfied or pending.completion.triggered:
                return
            nacked = pending.wake.triggered
            if pending.retries_left <= 0 or not self._deadline_left(pending):
                self._fail_pending(pending, nacked)
                return
            pending.retries_left -= 1
            pending.attempts += 1
            policy = pending.policy
            backoff = policy.backoff_s(pending.attempts - 1, self._rng)
            if backoff > 0.0:
                if policy.deadline_s is not None and (
                    self.env.now + backoff
                    >= pending.first_sent_at + policy.deadline_s
                ):
                    # The backoff alone would blow the budget: give the
                    # caller its typed verdict now instead of later.
                    self._fail_pending(pending, nacked)
                    return
                yield self.env.timeout(backoff)
                if pending.satisfied or pending.completion.triggered:
                    return
            # Re-express with a fresh nonce so it is not treated as a loop;
            # re-arm the wake first so a synchronous Nack lands on the new
            # cycle, not the consumed event.
            pending.interest = Interest(
                name=pending.interest.name,
                can_be_prefix=pending.interest.can_be_prefix,
                must_be_fresh=pending.interest.must_be_fresh,
                lifetime=pending.interest.lifetime,
                application_parameters=pending.interest.application_parameters,
            )
            pending.wake = self.env.event(name="retry")
            self._send(pending)

    def _settle(self, pending: PendingInterest) -> None:
        """The exchange has its verdict: drop it and end its watchdog *now*.

        Tripping the per-cycle wake makes the watchdog run its existing
        ``satisfied`` check at once, rather than sleep out the rest of the
        Interest lifetime holding the exchange (the Interest, the decoded
        Data, its events) alive.
        """
        pending.satisfied = True
        self._forget(pending)
        wake = pending.wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _forget(self, pending: PendingInterest) -> None:
        bucket = self._pending.get(pending.interest.name, [])
        if pending in bucket:
            bucket.remove(pending)
            if pending.interest.can_be_prefix:
                self._prefix_pending -= 1
        if not bucket:
            self._pending.pop(pending.interest.name, None)

    def pending_count(self) -> int:
        """Number of in-flight Interests (leak check for concurrent sessions)."""
        return sum(len(bucket) for bucket in self._pending.values())

    def _on_data(self, data: Data) -> None:
        """Resolve the pending Interests this Data satisfies.

        Exact-name lookup first — O(1) regardless of how many unrelated
        Interests are in flight, which is what keeps N concurrent job
        sessions on one consumer cheap.  The linear scan only runs for the
        (rare) prefix-matching Interests.
        """
        self.data_received += 1
        matches: list[PendingInterest] = []
        bucket = self._pending.get(data.name)
        if bucket:
            matches.extend(p for p in bucket if p.interest.matches_data(data))
        if self._prefix_pending:
            for name, prefix_bucket in list(self._pending.items()):
                if name == data.name:
                    continue
                for pending in prefix_bucket:
                    if pending.interest.can_be_prefix and pending.interest.matches_data(data):
                        matches.append(pending)
        for pending in matches:
            self._settle(pending)
            if not pending.completion.triggered:
                pending.completion.succeed(data)

    def _on_nack(self, nack: "Nack | WirePacket") -> None:
        self.nacks_received += 1
        reason = nack.reason
        bucket = list(self._pending.get(nack.name, []))
        for pending in bucket:
            if (
                pending.policy.should_retry_nack(reason)
                and pending.retries_left > 0
                and self._deadline_left(pending)
            ):
                # Self-healing path: wake the watchdog to retransmit (with
                # backoff) instead of failing the exchange on first refusal.
                pending.nack_reason = reason
                if pending.wake is not None and not pending.wake.triggered:
                    pending.wake.succeed(reason)
                continue
            self._settle(pending)
            if not pending.completion.triggered:
                pending.completion.fail(
                    InterestNacked(nack.name, NackReason.label(reason))
                )

    # -- higher-level fetch helpers -----------------------------------------------

    def fetch(self, name: "Name | str", **kwargs):
        """Process generator: fetch a single Data packet and return it.

        Usage inside a process::

            data = yield from consumer.fetch("/ndn/k8s/data/foo")
        """
        data = yield self.express_interest(name, **kwargs)
        return data

    def fetch_segments(self, base_name: "Name | str", lifetime: float = 4.0,
                       retry_policy: Optional[RetryPolicy] = RetryPolicy(max_retries=1)):
        """Process generator: fetch a segmented object and return its bytes.

        Fetches ``<base>/seg=0`` first, reads the final block id, then fetches
        the remaining segments sequentially, each under ``retry_policy``.
        """
        base = Name(base_name)
        first = yield self.express_interest(
            base.append("seg=0"), lifetime=lifetime, retry_policy=retry_policy
        )
        segments = [first]
        if first.final_block_id is None:
            return first.content
        last_label = first.final_block_id.to_str()
        if not last_label.startswith("seg="):
            raise NDNError(f"unexpected final block id {last_label!r}")
        last_index = int(last_label[len("seg="):])
        for index in range(1, last_index + 1):
            segment = yield self.express_interest(
                base.append(f"seg={index}"), lifetime=lifetime, retry_policy=retry_policy
            )
            segments.append(segment)
        return reassemble(segments)


class Producer:
    """An application endpoint serving a namespace on a forwarder."""

    def __init__(
        self,
        env: Environment,
        forwarder: Forwarder,
        prefix: "Name | str",
        handler: Optional[Callable[[InterestLike], "AnyPacket | None"]] = None,
        signer: "DigestSigner | HmacSigner | None" = None,
        name: str = "producer",
        freshness_period: float = 0.0,
    ) -> None:
        self.env = env
        self.name = name
        self.prefix = Name(prefix)
        self.forwarder = forwarder
        self.signer = signer or DigestSigner()
        self.freshness_period = freshness_period
        self._store: dict[Name, Data] = {}
        self._handler = handler
        self.interests_served = 0
        self.face = forwarder.attach_producer(self.prefix, self._dispatch)

    # -- publishing -------------------------------------------------------------

    def publish(self, name: "Name | str", content: "bytes | str", segment_size: int = 0,
                freshness_period: Optional[float] = None) -> list[Data]:
        """Add content to the producer's static store (optionally segmented)."""
        name = Name(name)
        if not self.prefix.is_prefix_of(name):
            raise NDNError(f"{name} is outside the producer prefix {self.prefix}")
        if isinstance(content, str):
            content = content.encode("utf-8")
        freshness = self.freshness_period if freshness_period is None else freshness_period
        if segment_size and len(content) > segment_size:
            packets = segment_content(
                name, content, segment_size=segment_size, signer=self.signer,
                freshness_period=freshness,
            )
        else:
            packets = [
                Data(name=name, content=content, freshness_period=freshness).sign(self.signer)
            ]
        for packet in packets:
            self._store[packet.name] = packet
        return packets

    def unpublish(self, name: "Name | str") -> int:
        """Remove content under ``name`` (prefix match); returns packets removed."""
        name = Name(name)
        victims = [stored for stored in self._store if name.is_prefix_of(stored)]
        for victim in victims:
            del self._store[victim]
        return len(victims)

    def stored_names(self) -> list[Name]:
        return sorted(self._store.keys())

    # -- serving -----------------------------------------------------------------

    def _dispatch(self, interest: InterestLike) -> "AnyPacket | None":
        self.interests_served += 1
        # Static store first (exact, then prefix match for discovery); every
        # field read here resolves lazily off the wire view.
        data = self._store.get(interest.name)
        if data is None and interest.can_be_prefix:
            candidates = [d for n, d in self._store.items() if interest.name.is_prefix_of(n)]
            if candidates:
                data = min(candidates, key=lambda d: d.name)
        if data is not None:
            return data
        if self._handler is not None:
            return self._handler(interest)
        return interest.nack(NackReason.NO_ROUTE)

    def make_data(self, name: "Name | str", content: "bytes | str",
                  freshness_period: Optional[float] = None) -> Data:
        """Build and sign a Data packet in this producer's namespace."""
        freshness = self.freshness_period if freshness_period is None else freshness_period
        if isinstance(content, str):
            content = content.encode("utf-8")
        return Data(name=Name(name), content=content, freshness_period=freshness).sign(self.signer)
