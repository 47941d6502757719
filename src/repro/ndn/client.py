"""The consumer endpoint.

:class:`Consumer` is the client-side endpoint used by workflows and by the
LIDC client library: it expresses Interests into a forwarder and completes an
event with the returned Data (or fails it with a timeout / NACK error).

Producers need no helper here: an application attaches its request handler
with :meth:`~repro.ndn.forwarder.Forwarder.attach_producer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.exceptions import InterestNacked, InterestTimeout
from repro.ndn.face import Face, LocalFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name, parse_name
from repro.ndn.packet import Data, Interest, NackReason, WirePacket
from repro.ndn.segmentation import parse_segment, reassemble
from repro.ndn.tlv import TlvTypes
from repro.sim.engine import Environment, Event, Timeout
from repro.sim.rng import SeededRNG

__all__ = ["Consumer", "RetryPolicy"]


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
class _PendingInterest:
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
    #: The one armed timer of the exchange: its cycle's lifetime, the
    #: zero-delay end of a Nacked cycle, or the backoff before the next
    #: transmission.  ``None`` while nothing is armed.
    timer: Optional[Timeout] = None
    #: True from a transmission until its cycle ends; a retriable Nack
    #: ends an open cycle, and during a backoff it only records its reason.
    in_cycle: bool = False
    #: Reason code of the most recent Nack (for the final typed error).
    nack_reason: Optional[int] = None


class Consumer:
    """An application endpoint that expresses Interests through a forwarder."""

    def __init__(
        self,
        env: Environment,
        forwarder: Forwarder,
        name: str = "consumer",
        rng: Optional[SeededRNG] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.forwarder = forwarder
        #: Entropy for retry jitter; seeded from the consumer name so two
        #: consumers never share a jitter sequence yet replays are exact.
        self._rng = rng or SeededRNG(sum(name.encode("utf-8")))
        self._pending: dict[Name, list[_PendingInterest]] = {}
        #: Number of in-flight Interests with ``can_be_prefix``; kept so the
        #: Data path can skip the full prefix scan when (as is typical for
        #: many concurrent job sessions) every pending Interest is exact-match.
        self._prefix_pending = 0
        self._faces: list[Face] = []
        self.face, self._fwd_face = connect(
            env, self, forwarder, label=f"{name}<->{forwarder.name}", face_cls=LocalFace
        )
        self.interests_sent = 0
        self.data_received = 0
        self.nacks_received = 0
        self.timeouts = 0

    # -- endpoint protocol ------------------------------------------------------

    def add_face(self, face: Face) -> int:
        self._faces.append(face)
        return len(self._faces)

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        packet_type = packet.packet_type
        if packet_type == TlvTypes.DATA:
            # The consumer is the content's destination: this is where the
            # (at most one) full decode of a wire-borne packet belongs.
            self._on_data(packet.decode())
        elif packet_type == TlvTypes.NACK:
            # Nack handling needs only the enclosed name and the reason code,
            # both lazily available on the view.
            self._on_nack(packet)
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
                name=parse_name(name) if isinstance(name, str) else name,
                can_be_prefix=can_be_prefix,
                must_be_fresh=must_be_fresh,
                lifetime=lifetime if lifetime is not None else 4.0,
                application_parameters=application_parameters,
            )
        policy = retry_policy if retry_policy is not None else NO_RETRY
        completion = self.env.event(name="fetch")
        pending = _PendingInterest(
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
        self._transmit(pending)
        return completion

    def _transmit(self, pending: _PendingInterest) -> None:
        """Send and, unless the send itself decided the cycle, arm its lifetime.

        On zero-delay faces the answer can arrive inside ``face.send``: Data
        settles the exchange and a retriable Nack arms the cycle's end, so
        neither leaves a lifetime to arm.
        """
        pending.in_cycle = True
        self.interests_sent += 1
        self.face.send(pending.interest)
        if pending.in_cycle and not pending.satisfied:
            self._arm(pending, pending.interest.lifetime,
                      partial(self._end_cycle, pending, False))

    def _arm(self, pending: _PendingInterest, delay: float,
             expire: Callable[[Event], None]) -> None:
        timer = self.env.timeout(delay)
        timer.callbacks.append(expire)
        pending.timer = timer

    def _disarm(self, pending: _PendingInterest) -> None:
        """Cancel the armed timer: the spent ``Timeout`` stays in the
        schedule until it is due, but runs nothing and holds nothing."""
        timer = pending.timer
        if timer is not None:
            timer.callbacks.clear()
            pending.timer = None

    def _deadline_left(self, pending: _PendingInterest) -> bool:
        deadline_s = pending.policy.deadline_s
        return deadline_s is None or (self.env.now - pending.first_sent_at) < deadline_s

    def _fail_pending(self, pending: _PendingInterest, nacked: bool) -> None:
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

    def _end_cycle(self, pending: _PendingInterest, nacked: bool, _timer: Timeout) -> None:
        """The cycle's lifetime ran out, or a retriable Nack ended it:
        fail the exchange, or spend a retry and back off or re-express."""
        pending.timer = None
        pending.in_cycle = False
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
            self._arm(pending, backoff, partial(self._retransmit, pending))
            return
        self._retransmit(pending)

    def _retransmit(self, pending: _PendingInterest, _timer: Optional[Timeout] = None) -> None:
        """Re-express with a fresh nonce so it is not treated as a loop."""
        pending.timer = None
        interest = pending.interest
        pending.interest = Interest(
            name=interest.name,
            can_be_prefix=interest.can_be_prefix,
            must_be_fresh=interest.must_be_fresh,
            lifetime=interest.lifetime,
            application_parameters=interest.application_parameters,
        )
        self._transmit(pending)

    def _settle(self, pending: _PendingInterest) -> None:
        """The exchange has its verdict: drop it and disarm its timer *now*,
        rather than leave the exchange (the Interest, the decoded Data, its
        events) reachable from the schedule for the rest of its lifetime."""
        pending.satisfied = True
        self._forget(pending)

    def _forget(self, pending: _PendingInterest) -> None:
        self._disarm(pending)
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
        matches: list[_PendingInterest] = []
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

    def _on_nack(self, nack: WirePacket) -> None:
        self.nacks_received += 1
        reason = nack.reason
        bucket = list(self._pending.get(nack.name, []))
        for pending in bucket:
            if (
                pending.policy.should_retry_nack(reason)
                and pending.retries_left > 0
                and self._deadline_left(pending)
            ):
                # Self-healing path: end the open cycle to retransmit (with
                # backoff) instead of failing the exchange on first refusal.
                # The end is a zero-delay timer, never a re-send inside this
                # Nack's own delivery stack.
                pending.nack_reason = reason
                if pending.in_cycle:
                    pending.in_cycle = False
                    self._disarm(pending)
                    self._arm(pending, 0.0, partial(self._end_cycle, pending, True))
                continue
            self._settle(pending)
            if not pending.completion.triggered:
                pending.completion.fail(
                    InterestNacked(nack.name, NackReason.label(reason))
                )

    # -- higher-level fetch helpers -----------------------------------------------

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
        last_index = parse_segment(first.final_block_id.to_str())
        for index in range(1, last_index + 1):
            segment = yield self.express_interest(
                base.append(f"seg={index}"), lifetime=lifetime, retry_policy=retry_policy
            )
            segments.append(segment)
        return reassemble(segments)
