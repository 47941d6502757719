"""Forwarding strategies.

A strategy decides which next hop(s) an Interest is forwarded to, given the
FIB entry that matched it.  LIDC's location independence comes from exactly
this point: when several clusters announce ``/ndn/k8s/compute``, the strategy
chooses the nearest / best / least-loaded one without the client knowing any
cluster location.

Ownership versus replication — when a namespace should remember who
answered.  A name is *owned* when exactly one upstream can ever answer it
and every other one Nacks: a job's ``/ndn/k8s/status/<job-id>`` lives on the
cluster that admitted the job.  Best-route re-discovers that owner by Nack
retry on every Interest, so such a namespace gets
:class:`OwnerAffinityStrategy`, which keeps the discovery (the first Interest
still walks the next hops in cost order — nothing tells it where the owner
is) and stops repeating it.  A name is *replicated* when several upstreams
can answer it equally: datasets under ``/ndn/k8s/data`` sit in every
cluster's data lake and ``/ndn/k8s/compute`` is served by whichever cluster
has room.  There the nearest (or least loaded) upstream should win each
time, and remembering an answerer would pin a name to a farther cluster
after one transient Nack — those namespaces keep a memoryless strategy.

Liveness — what a strategy is told about down hops.  Fail-over is the
forwarding plane's job, not the client's: a next hop whose face is down (or
gone) must never be the answer while a live, untried one exists.  The
forwarder asks once with ``tried_faces`` only; when the answer names a down
face it asks again with ``down_faces``, the face ids of the FIB entry's hops
that are down right now, and every strategy drops those from its candidates.
The two sets stay separate because they mean different things: a *tried*
face already Nacked this exchange (an owner-affinity memory pointing at it is
wrong and is forgotten), a *down* face has said nothing (the memory may well
be right — the owner's link is down, nobody else can answer, so the strategy
returns no hop, the forwarder Nacks ``NoRoute`` at once, and steering resumes
when the link heals).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

from repro.exceptions import NDNError
from repro.ndn.fib import FibEntry
from repro.ndn.name import Name
from repro.ndn.packet import Interest, encode_name_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ndn.packet import WirePacket

from repro.sim.rng import SeededRNG

__all__ = [
    "Strategy",
    "BestRouteStrategy",
    "MulticastStrategy",
    "LoadBalanceStrategy",
    "FailoverStrategy",
    "OwnerAffinityStrategy",
    "StrategyChoiceTable",
    "DispatcherHotCache",
]


class Strategy:
    """Base strategy interface."""

    name = "base"

    def select(
        self,
        interest: Interest,
        fib_entry: FibEntry,
        in_face_id: int,
        tried_faces: Sequence[int] = (),
        down_faces: Sequence[int] = (),
    ) -> list[int]:
        """Return the face ids to forward on (may be empty).

        Never ``in_face_id``, a face in ``tried_faces`` (it Nacked this
        exchange) or one in ``down_faces`` (its link is down right now).
        """
        raise NotImplementedError

    def _eligible(
        self,
        fib_entry: FibEntry,
        in_face_id: int,
        tried_faces: Sequence[int],
        down_faces: Sequence[int] = (),
    ) -> list:
        if down_faces:  # as candidates the two sets are one; only memory tells them apart
            tried_faces = (*tried_faces, *down_faces)
        return [
            hop
            for hop in fib_entry.nexthops
            if hop.face_id != in_face_id and hop.face_id not in tried_faces
        ]

    def note_nack(self, face_id: int, now: float) -> None:
        """Feedback hook: an upstream on ``face_id`` Nacked at ``now``.

        The forwarder's Nack pipeline calls this for every received Nack;
        the base strategies ignore it, failover-aware ones use it to steer
        subsequent Interests away from the failing next hop.
        """

    def note_answer(self, name: Name, face_id: int) -> None:
        """Feedback hook: ``face_id`` answered ``name`` after a retry.

        The forwarder's Data pipeline calls this only for an exchange whose
        first upstream choice was wrong and a later one was right; the base
        strategies ignore it, :class:`OwnerAffinityStrategy` remembers it.
        """


class BestRouteStrategy(Strategy):
    """Forward to the lowest-cost untried next hop (NFD's default)."""

    name = "best-route"

    def select(self, interest, fib_entry, in_face_id, tried_faces=(), down_faces=()):
        eligible = self._eligible(fib_entry, in_face_id, tried_faces, down_faces)
        if not eligible:
            return []
        best = min(eligible, key=lambda hop: (hop.cost, hop.face_id))
        return [best.face_id]


class MulticastStrategy(Strategy):
    """Forward to every eligible next hop (used for discovery / sync)."""

    name = "multicast"

    def select(self, interest, fib_entry, in_face_id, tried_faces=(), down_faces=()):
        eligible = self._eligible(fib_entry, in_face_id, tried_faces, down_faces)
        return [hop.face_id for hop in eligible]


class LoadBalanceStrategy(Strategy):
    """Spread Interests over next hops.

    Two modes:

    * ``weighted=False`` — pure round robin over eligible hops;
    * ``weighted=True`` — random choice weighted by the inverse routing cost,
      so cheaper (nearer / less loaded) clusters receive proportionally more
      requests while others still get traffic.
    """

    name = "load-balance"

    def __init__(self, rng: Optional[SeededRNG] = None, weighted: bool = False) -> None:
        self._rng = rng or SeededRNG(0)
        self._weighted = weighted
        self._counters: dict[Name, int] = {}

    def select(self, interest, fib_entry, in_face_id, tried_faces=(), down_faces=()):
        eligible = self._eligible(fib_entry, in_face_id, tried_faces, down_faces)
        if not eligible:
            return []
        if self._weighted:
            weights = [1.0 / (1.0 + hop.cost) for hop in eligible]
            total = sum(weights)
            pick = self._rng.uniform(0.0, total, stream="load-balance")
            cumulative = 0.0
            for hop, weight in zip(eligible, weights):
                cumulative += weight
                if pick <= cumulative:
                    return [hop.face_id]
            return [eligible[-1].face_id]
        counter = self._counters.get(fib_entry.prefix, 0)
        self._counters[fib_entry.prefix] = counter + 1
        return [eligible[counter % len(eligible)].face_id]


class FailoverStrategy(Strategy):
    """Best-route with a penalty box fed by Nack feedback.

    Every received Nack puts the Nacking next hop in a penalty box for
    ``cooldown_s`` simulated seconds (:meth:`Strategy.note_nack`, wired
    through the forwarder's Nack pipeline).  Selection is lowest-cost over
    the non-penalised next hops, so traffic fails over to a healthy
    upstream immediately and only drifts back once the cooldown expires.
    When *every* eligible hop is penalised the strategy falls back to
    plain best-route — a flapping path beats a guaranteed NoRoute.
    """

    name = "failover"

    def __init__(self, cooldown_s: float = 5.0, clock=None) -> None:
        if cooldown_s < 0:
            raise NDNError(f"failover cooldown must be >= 0, got {cooldown_s}")
        self.cooldown_s = cooldown_s
        #: Simulated-time source; without one the strategy tracks the latest
        #: time it saw through ``note_nack`` (good enough for cooldowns that
        #: only need to expire relative to later failures).
        self._clock = clock
        #: face id -> simulated time until which the face is penalised.
        self._penalty_until: dict[int, float] = {}
        self.nacks_noted = 0
        self._last_seen = 0.0

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return self._last_seen

    def note_nack(self, face_id: int, now: float) -> None:
        self._penalty_until[face_id] = now + self.cooldown_s
        self._last_seen = max(self._last_seen, now)
        self.nacks_noted += 1

    def penalised(self, face_id: int, now: Optional[float] = None) -> bool:
        when = self._now() if now is None else now
        return self._penalty_until.get(face_id, 0.0) > when

    def select(self, interest, fib_entry, in_face_id, tried_faces=(), down_faces=()):
        eligible = self._eligible(fib_entry, in_face_id, tried_faces, down_faces)
        if not eligible:
            return []
        now = self._now()
        healthy = [hop for hop in eligible if not self.penalised(hop.face_id, now)]
        pool = healthy or eligible
        best = min(pool, key=lambda hop: (hop.cost, hop.face_id))
        return [best.face_id]


class OwnerAffinityStrategy(BestRouteStrategy):
    """Best-route that remembers, per name, the upstream that owns it.

    For namespaces where one upstream can answer a name and the others
    Nack (see the module docstring).  The first Interest for a name finds
    its owner the best-route way, by Nack retry down the cost order; the
    forwarder reports the face that finally answered
    (:meth:`Strategy.note_answer`) and later Interests for that name go
    straight there.  The remembered face is dropped, and selection falls
    back to plain best-route, as soon as it cannot be the answer any more:
    it already Nacked this exchange (it is in ``tried_faces``), it is the
    face the Interest came in on, or the FIB entry no longer lists it (the
    upstream left or failed — face ids are never reused, so a stale id can
    never match a newer face).  A remembered face that is merely *down*
    (in ``down_faces``) is kept and answered with no hop at all: nobody else
    owns the name, so the consumer gets ``NoRoute`` at once and steering
    resumes when the link heals.  Memory is an LRU over :attr:`CAPACITY`
    names; a steered Interest refreshes its name's recency.
    """

    name = "owner-affinity"
    #: Names remembered at once (the Content Store's default capacity).
    CAPACITY = 4096

    def __init__(self) -> None:
        self._owners: "OrderedDict[Name, int]" = OrderedDict()

    def note_answer(self, name: Name, face_id: int) -> None:
        owners = self._owners
        owners[name] = face_id
        owners.move_to_end(name)
        if len(owners) > self.CAPACITY:
            owners.popitem(last=False)

    def select(self, interest, fib_entry, in_face_id, tried_faces=(), down_faces=()):
        owners = self._owners
        name = interest.name
        owner = owners.get(name)
        if owner is not None:
            if (
                owner != in_face_id
                and owner not in tried_faces
                and any(hop.face_id == owner for hop in fib_entry.nexthops)
            ):
                owners.move_to_end(name)
                return [] if owner in down_faces else [owner]
            del owners[name]
        return super().select(interest, fib_entry, in_face_id, tried_faces, down_faces)


class _HotEntry:
    """One hot-cache slot: a bytes-only Data template plus its lease.

    ``freshness_s`` is ``None`` until the entry's first lookup: admission
    happens on the egress fast path, where reading the freshness TLV would
    cost a span walk per egressed Data even on cache-hostile workloads, so
    the read is deferred to the first hit and amortised over every serve.
    """

    __slots__ = ("template", "arrival", "freshness_s")

    def __init__(self, template: "WirePacket", arrival: float) -> None:
        self.template = template
        self.arrival = arrival
        self.freshness_s: "float | None" = None

    def is_fresh(self, now: float) -> bool:
        if self.freshness_s is None:
            self.freshness_s = self.template.freshness_period
        if self.freshness_s <= 0:
            return False  # like the CS: no freshness period = always stale
        return (now - self.arrival) <= self.freshness_s


class DispatcherHotCache:
    """A bounded exact-match wire-frame cache for a shard dispatcher.

    This is the strategy tier in front of a sharded data plane: the
    dispatcher consults it before hashing a packet to a shard, so repeat
    Interests for a hot name are answered from the dispatcher itself —
    no hash, no boundary frame, no shard round-trip, and **zero decodes**
    (the stored template and every lookup key are plain bytes).

    Keys are the canonical name bytes (:attr:`WirePacket.name_bytes`, equal
    to :func:`~repro.ndn.packet.encode_name_value` of the Name); values are
    bytes-only Data views.  Eviction is LRU over ``capacity`` slots.

    Coherence contract (the cache must never serve what its shard CS has
    stopped vouching for): an entry is admitted only while resident in the
    owning shard's Content Store, is served only inside its freshness
    window (zero-freshness Data is never served; the freshness TLV is read
    lazily on the entry's first lookup so cache-hostile workloads never
    pay for it), and is dropped eagerly on

    * the owning shard CS evicting/erasing the name (wired through
      :attr:`~repro.ndn.cs.ContentStore.on_evict`),
    * a producer (re-)installing under any covering prefix
      (:meth:`invalidate_under`), and
    * LRU capacity eviction here.
    """

    __slots__ = (
        "capacity", "_entries", "hits", "misses", "insertions",
        "invalidations", "expirations", "evictions",
    )

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise NDNError(f"hot cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, _HotEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0
        self.expirations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    # -- fast path -----------------------------------------------------------

    def get(self, key: bytes, now: float) -> "WirePacket | None":
        """The fresh Data template under ``key``, or ``None`` (a miss).

        Stale (or zero-freshness) entries are dropped on sight: once the
        freshness window has passed, only the shard CS may decide whether
        stale content is still servable, so the fast path steps aside.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.is_fresh(now):
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.template

    # -- population ----------------------------------------------------------

    def insert(self, key: bytes, template: "WirePacket", now: float) -> None:
        """Admit (or refresh) a Data template under ``key``, aged from ``now``.

        The freshness read is deferred to the entry's first lookup (the
        egress fast path never walks the Data's spans).
        """
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = _HotEntry(template, now)
        self.insertions += 1

    # -- coherence -----------------------------------------------------------

    def invalidate(self, key: bytes) -> bool:
        """Drop the entry under exactly ``key``; True when one was held."""
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1
            return True
        return False

    def invalidate_name(self, name: "Name") -> bool:
        """Drop the entry for a :class:`Name` (the CS eviction callback)."""
        return self.invalidate(encode_name_value(name))

    def invalidate_under(self, prefix: "Name") -> int:
        """Drop every entry under ``prefix`` (producer install/re-install).

        Component TLVs concatenate, so prefix-of-name is byte-prefix-of-key;
        the scan is bounded by ``capacity``, and a producer install is a
        control-plane event, not a per-packet one.
        """
        prefix_bytes = encode_name_value(prefix)
        victims = [key for key in self._entries if key.startswith(prefix_bytes)]
        for key in victims:
            del self._entries[key]
        self.invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "invalidations": self.invalidations,
            "expirations": self.expirations,
            "evictions": self.evictions,
        }


class StrategyChoiceTable:
    """Per-prefix strategy selection with longest-prefix-match semantics."""

    def __init__(self, default: Optional[Strategy] = None) -> None:
        self._default = default or BestRouteStrategy()
        self._choices: dict[Name, Strategy] = {}

    def set_strategy(self, prefix: "Name | str", strategy: Strategy) -> None:
        self._choices[Name(prefix)] = strategy

    def unset_strategy(self, prefix: "Name | str") -> None:
        self._choices.pop(Name(prefix), None)

    def find(self, name: "Name | str") -> Strategy:
        """The strategy governing ``name`` (deepest configured prefix wins)."""
        name = Name(name)
        best_prefix: Optional[Name] = None
        for prefix in self._choices:
            if prefix.is_prefix_of(name):
                if best_prefix is None or len(prefix) > len(best_prefix):
                    best_prefix = prefix
        if best_prefix is None:
            return self._default
        return self._choices[best_prefix]

    @property
    def default(self) -> Strategy:
        return self._default
