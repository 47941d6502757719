"""Sharded forwarder data plane: namespace-partitioned worker shards.

A single :class:`~repro.ndn.forwarder.Forwarder` is bound to one core.  This
module partitions one node's namespace across N forwarder *shards* so the
data plane scales past that: a thin dispatcher hashes each packet's name to
a shard and hands the **encoded wire buffer** across the shard boundary.
The wire-level transport API is the prerequisite — an encoded buffer (unlike
an object graph) can cross a process boundary — and the boundary here only
ever carries :class:`~repro.ndn.packet.WirePacket` views: no packet is
copied, re-encoded or fully decoded in transit, which the
``WirePacket.wire_decodes`` counter enforces in tests and benchmarks.

Partitioning contract
---------------------
* The shard key of a name is its first ``key_depth`` components (default 1,
  per-tenant style partitioning; deeper keys suit single-rooted namespaces
  like ``/ndn/k8s/...``).  A name shorter than ``key_depth`` keys on all of
  its components.
* The key is placed by rendezvous hashing (:func:`_rendezvous_for_key`,
  the highest-random-weight scheme of Thaler & Ravishankar): every shard
  scores the key with :func:`hashlib.sha256` — deterministic across
  processes, runs and ``PYTHONHASHSEED``, never Python's randomised
  ``hash`` — and the highest score owns it.  Growing the shard count from
  N to N+1 only moves keys *onto the new shard*; keys that stay map to
  the same shard as before.
* An Interest and the Data/Nack that answers it carry the same name, so
  they always land on the same shard: each shard owns the complete
  PIT/CS/FIB state for its slice of the namespace and no cross-shard
  coordination exists on the fast path.
* A *prefix* (route or producer) with at least ``key_depth`` components has
  exactly one owning shard; a shorter prefix spans the whole key space and
  is installed on every shard.

Dispatcher fast path
--------------------
Every packet crosses the dispatcher, so the dispatcher is the hottest
point in the sharded plane.  Two optimisations keep it lean:

* *Dispatch keys come from bytes, not objects.*  The dispatcher hashes
  :attr:`WirePacket.name_bytes` — a memoised single slice of the wire —
  through :func:`_key_from_name_bytes`; no :class:`Name` components are
  materialised and repeat dispatch of the same view never re-walks spans.
* *An exact-match hot cache answers repeat Interests in place.*  A bounded
  :class:`~repro.ndn.strategy.DispatcherHotCache` mirrors the Data the
  shards recently served: a hit sends the cached wire frame straight back
  out the ingress face — no hash, no boundary crossing, no shard
  round-trip, and zero decodes (counter-enforced by benchmarks and tests).
  Coherence is explicit: entries are admitted only while resident in the
  owning shard's Content Store with positive freshness, served only within
  the freshness window, and invalidated eagerly on shard-CS eviction
  (:attr:`ContentStore.on_evict`) and on producer (re-)install under a
  covering prefix.  One semantic note: like any cache placed ahead of the
  PIT, a hot-cache hit answers before duplicate-nonce detection — a repeat
  nonce is served Data rather than a Duplicate Nack.

Boundary mechanics
------------------
A packet crosses a shard boundary (:class:`ShardFace`) as a new
:class:`~repro.ndn.packet.WirePacket` over the sender's buffer
(:meth:`~repro.ndn.packet.WirePacket.detached_view`).  Packet buffers are
immutable ``bytes``, so one buffer can back every holder: the owning
shard's Content Store, the dispatcher hot cache and the downstream
forwarders all keep the bytes the producer encoded.  The sender's parse —
TLV span table, name, name bytes — rides along, so the receiving shard
never re-walks the buffer.  The sender's decoded object never crosses: the
far side starts bytes-only, which is what makes the transit-decode counter
meaningful.  The hand-over, in both directions and at the dispatcher, is a
direct call: it spends no simulated time and schedules no event, so a
sharded node processes exactly the events a plain forwarder does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from repro.exceptions import NDNError
from repro.ndn.face import Face
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.nametree import as_name
from repro.ndn.packet import Data, WirePacket, encode_name_value
from repro.ndn.strategy import DispatcherHotCache, Strategy
from repro.ndn.tlv import decode_tlv_header
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.sim.trace import Tracer

__all__ = [
    "ShardFace",
    "ShardedForwarder",
    "RebalanceReport",
]


def _rendezvous_for_key(key: bytes, num_shards: int) -> int:
    """Rendezvous-hash (HRW) ``key`` onto one of ``num_shards`` shards.

    Each shard scores the key independently (sha256 of shard id + key);
    the highest score wins.  Growing the pool adds one new contender whose
    score does not perturb the others, so a key either stays put or moves
    onto the new shard.
    """
    if num_shards < 1:
        raise NDNError(f"need at least one shard, got {num_shards}")
    if num_shards == 1:
        return 0
    best_shard = 0
    best_score = -1
    for shard in range(num_shards):
        digest = hashlib.sha256(b"hrw:%d:" % shard + key).digest()
        score = int.from_bytes(digest[:8], "big")
        if score > best_score:
            best_shard, best_score = shard, score
    return best_shard


def _key_from_name_bytes(name_value: bytes, key_depth: int) -> bytes:
    """The partitioning key: the first ``key_depth`` component values.

    ``name_value`` is a Name TLV's value — :attr:`WirePacket.name_bytes`
    on the data plane, :func:`encode_name_value` of a :class:`Name` on the
    control plane — so the key is sliced straight out of the bytes without
    materialising :class:`Name` components.
    """
    if key_depth < 1:
        raise NDNError(f"shard key depth must be >= 1, got {key_depth}")
    parts = []
    offset = 0
    end = len(name_value)
    while offset < end and len(parts) < key_depth:
        _comp_type, value_start, value_end = decode_tlv_header(name_value, offset)
        parts.append(name_value[value_start:value_end])
        offset = value_end
    return b"/".join(parts)


def _make_shard_picker(num_shards: int) -> Callable[[bytes], int]:
    """A memoised rendezvous ``key -> shard`` function.

    The returned picker caches up to 4096 distinct keys (tenant
    populations are small next to packet counts), so steady-state dispatch
    pays a dict hit, not a hash computation.
    """
    # Validate once up front, not per key.
    _rendezvous_for_key(b"", num_shards)
    return lru_cache(maxsize=4096)(
        lambda key: _rendezvous_for_key(key, num_shards)
    )


# --------------------------------------------------------------- shard faces


class ShardFace(Face):
    """A face whose transmissions cross a shard boundary as shared bytes.

    Every packet reaches the far side as :meth:`WirePacket.detached_view`:
    a fresh view over the sender's own immutable buffer — same bytes, same
    TLV span table, same memoised name and name bytes — that carries no
    decoded object, even when the sender held one.  Nothing is copied and
    nothing is parsed twice, and ``is_decoded`` stays False on the far
    side, which is what makes the transit-decode counter meaningful.
    """

    def _transmit(self, packet: WirePacket) -> None:
        peer = self.peer
        assert peer is not None
        peer.deliver(packet.detached_view())


class _ShardRelay:
    """Dispatcher-side endpoint of one (external face, shard) boundary pair.

    Packets a shard emits towards an external face land here and go
    straight out through the dispatcher.  The relay knows which shard it
    fronts, so egress Data can be mirrored into the dispatcher hot cache
    attributed to its owning shard.
    """

    __slots__ = ("_owner", "_ext_face_id", "_shard_index", "face")

    def __init__(
        self, owner: "ShardedForwarder", ext_face_id: int, shard_index: int
    ) -> None:
        self._owner = owner
        self._ext_face_id = ext_face_id
        self._shard_index = shard_index
        self.face: Optional[Face] = None

    def add_face(self, face: Face) -> int:
        self.face = face
        return 0

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        self._owner._send_out(self._ext_face_id, packet, self._shard_index)


# ---------------------------------------------------------- sharded forwarder


class _ShardedFib:
    """FIB facade over the per-shard tables, keyed by *external* face ids.

    The routing daemon talks to ``forwarder.fib`` directly; this view
    translates its prefix/face operations onto whichever shards own the
    prefix.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "ShardedForwarder") -> None:
        self._owner = owner

    def add_route(self, prefix: "Name | str", face_id: int, cost: float = 0.0) -> None:
        self._owner.register_prefix(prefix, face_id, cost)

    def remove_route(self, prefix: "Name | str", face_id: int) -> bool:
        return self._owner.unregister_prefix(prefix, face_id)

    def route_cost(self, prefix: "Name | str", face_id: int) -> Optional[float]:
        return self._owner._registration_costs.get((as_name(prefix), face_id))

    def remove_face(self, face_id: int) -> int:
        removed = 0
        for (prefix, ext_id) in list(self._owner._registrations):
            if ext_id == face_id:
                if self._owner.unregister_prefix(prefix, ext_id):
                    removed += 1
        return removed

    def __len__(self) -> int:
        return len(self._owner._registrations)


@dataclass(slots=True)
class _ProducerRecord:
    """One attached producer: enough to re-home it during a rebalance."""

    prefix: Name
    handler: Callable[..., object]
    #: shard index -> the application face attached on that shard.
    faces: dict[int, Face] = field(default_factory=dict)


@dataclass(slots=True)
class RebalanceReport:
    """What one :meth:`ShardedForwarder.resize` actually moved.

    ``pending_aborted`` counts in-flight Interests whose shard key changed
    owner mid-flight: each was Nacked downstream (``NoRoute``) so retry
    policies re-route immediately — the bounded disruption of a live
    rebalance.  Frames already acknowledged (Data egressed) are never
    touched; the boundary ledgers stay exact across the resize.
    """

    at: float
    old_shards: int
    new_shards: int
    routes_added: int = 0
    routes_removed: int = 0
    producers_added: int = 0
    producers_removed: int = 0
    pending_aborted: int = 0
    cs_entries_dropped: int = 0


class ShardedForwarder:
    """A forwarder node whose namespace is partitioned across worker shards.

    Drop-in for :class:`~repro.ndn.forwarder.Forwarder` at the node level:
    it owns external faces, prefix registrations and producer attachments,
    but every packet is rendezvous-hashed on its name's shard key and
    forwarded — as a wire view, never a decoded object — to one of
    ``shards`` internal :class:`Forwarder` instances, each owning the
    complete PIT/CS/FIB state for its slice of the namespace.

    ``hot_cache`` sizes the dispatcher's exact-match hot cache (0 disables
    it) — see the module docstring for the fast-path coherence contract.

    Producers attached under a prefix shorter than ``key_depth`` are
    installed on every shard; such handlers must answer synchronously
    (returning Data/Nack from the callback), because the face returned by
    :meth:`attach_producer` reaches only the first owning shard.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "sharded",
        shards: int = 2,
        key_depth: int = 1,
        cs_capacity: int = 1024,
        tracer: Optional[Tracer] = None,
        hot_cache: int = 128,
    ) -> None:
        if shards < 1:
            raise NDNError(f"{name}: need at least one shard, got {shards}")
        if key_depth < 1:
            raise NDNError(f"{name}: shard key depth must be >= 1, got {key_depth}")
        self.env = env
        self.name = name
        self.num_shards = shards
        self.key_depth = key_depth
        # Build parameters kept verbatim so resize() can mint new shards
        # identical to the originals.
        self._cs_capacity = cs_capacity
        self._picker = _make_shard_picker(shards)
        self.tracer = tracer or Tracer(clock=lambda: env.now, enabled=False)
        self.metrics = MetricsRegistry()
        self.shards: list[Forwarder] = [
            Forwarder(
                env,
                name=f"{name}/shard{index}",
                cs_capacity=self._shard_capacity(cs_capacity, index, shards),
                tracer=self.tracer,
            )
            for index in range(shards)
        ]
        self.hot_cache: Optional[DispatcherHotCache] = (
            DispatcherHotCache(hot_cache) if hot_cache else None
        )
        if self.hot_cache is not None:
            # Shard-CS coherence: the moment a shard's Content Store stops
            # holding a name, the dispatcher must stop serving it too.
            for shard in self.shards:
                shard.cs.on_evict = self.hot_cache.invalidate_name
        self._faces: dict[int, Face] = {}
        self._next_face_id = 1
        # Per-packet counters resolved once: the registry lookup is cheap
        # but not free, and these increment on the hottest paths.
        self._dispatched = self.metrics.counter("packets_dispatched")
        self._dropped_no_face = self.metrics.counter("packets_dropped_no_face")
        #: (external face id, shard index) -> (dispatcher-side, shard-side) pair.
        self._mirrors: dict[tuple[int, int], tuple[ShardFace, ShardFace]] = {}
        #: (prefix, external face id) -> shard indices the route lives on.
        self._registrations: dict[tuple[Name, int], list[int]] = {}
        #: (prefix, external face id) -> route cost, so resize() can re-home
        #: a registration onto a new owner at its original cost.
        self._registration_costs: dict[tuple[Name, int], float] = {}
        #: Attached producers, so resize() can re-home handlers live.
        self._producers: list[_ProducerRecord] = []
        #: Strategy choices in application order, replayed onto new shards.
        self._strategies: list[tuple["Name | str", Strategy]] = []
        self.rebalances: list[RebalanceReport] = []
        self.fib = _ShardedFib(self)

    @staticmethod
    def _shard_capacity(total: int, index: int, shards: int) -> int:
        """Split a node-level CS capacity evenly across shards."""
        base, extra = divmod(total, shards)
        return base + (1 if index < extra else 0)

    # ------------------------------------------------------------------ faces

    def add_face(self, face: Face) -> int:
        """Register an external face and wire its per-shard boundary pairs."""
        face_id = self._next_face_id
        self._next_face_id += 1
        self._faces[face_id] = face
        for index in range(len(self.shards)):
            self._wire_boundary(face_id, index)
        return face_id

    def _wire_boundary(self, face_id: int, index: int) -> None:
        """Create the (dispatcher, shard) boundary pair for one mirror slot."""
        shard = self.shards[index]
        relay = _ShardRelay(self, face_id, index)
        dispatcher_side = ShardFace(
            self.env, relay,
            label=f"{self.name}:pipe:{face_id}>shard{index}",
        )
        shard_side = ShardFace(
            self.env, shard,
            label=f"{self.name}:shard{index}>pipe:{face_id}",
        )
        dispatcher_side.set_peer(shard_side)
        shard_side.set_peer(dispatcher_side)
        dispatcher_side.attach()
        shard_side.attach()
        self._mirrors[(face_id, index)] = (dispatcher_side, shard_side)

    def remove_face(self, face_id: int) -> None:
        """Detach an external face; purges its boundary pairs and routes."""
        face = self._faces.pop(face_id, None)
        if face is not None:
            face.close()
        for index, shard in enumerate(self.shards):
            pair = self._mirrors.pop((face_id, index), None)
            if pair is not None:
                shard.remove_face(pair[1].face_id)
        for key in [key for key in self._registrations if key[1] == face_id]:
            del self._registrations[key]
            self._registration_costs.pop(key, None)

    def face(self, face_id: int) -> Face:
        try:
            return self._faces[face_id]
        except KeyError:
            raise NDNError(f"{self.name}: unknown face id {face_id}") from None

    def faces(self) -> dict[int, Face]:
        return dict(self._faces)

    # ----------------------------------------------------------------- routes

    def _shard_of(self, name: Name) -> int:
        """The shard that owns ``name`` under the current placement."""
        return self._picker(
            _key_from_name_bytes(encode_name_value(name), self.key_depth)
        )

    def _owning_shards(self, prefix: Name) -> list[int]:
        """The shards a prefix's routes/producers must live on.

        Uses the node's dispatch picker, so registrations and per-packet
        dispatch can never disagree about ownership.
        """
        if len(prefix) >= self.key_depth:
            return [self._shard_of(prefix)]
        return list(range(self.num_shards))

    def register_prefix(self, prefix: "Name | str", face: "Face | int", cost: float = 0.0) -> None:
        """Register a prefix towards an external face on its owning shards."""
        ext_id = face.face_id if isinstance(face, Face) else int(face)
        if ext_id not in self._faces:
            raise NDNError(f"{self.name}: cannot register prefix on unknown face {ext_id}")
        prefix = as_name(prefix)
        owners = self._owning_shards(prefix)
        for index in owners:
            shard_side = self._mirrors[(ext_id, index)][1]
            self.shards[index].register_prefix(prefix, shard_side, cost)
        self._registrations[(prefix, ext_id)] = owners
        self._registration_costs[(prefix, ext_id)] = cost
        self.tracer.record("fib", "register", prefix=prefix, face=ext_id, shards=owners)

    def unregister_prefix(self, prefix: "Name | str", face: "Face | int") -> bool:
        ext_id = face.face_id if isinstance(face, Face) else int(face)
        prefix = as_name(prefix)
        owners = self._registrations.pop((prefix, ext_id), None)
        self._registration_costs.pop((prefix, ext_id), None)
        if owners is None:
            return False
        removed = False
        for index in owners:
            pair = self._mirrors.get((ext_id, index))
            if pair is None:
                continue
            removed = self.shards[index].unregister_prefix(prefix, pair[1]) or removed
        return removed

    def set_strategy(self, prefix: "Name | str", strategy: Strategy) -> None:
        """Choose the forwarding strategy for a namespace (on every shard)."""
        self._strategies.append((prefix, strategy))
        for shard in self.shards:
            shard.set_strategy(prefix, strategy)

    def attach_producer(
        self,
        prefix: "Name | str",
        handler: Callable[[WirePacket], "Data | WirePacket | None"],
    ) -> Face:
        """Attach an application producer on the prefix's owning shards.

        Returns the application face on the first owning shard; when the
        prefix spans several shards the handler is attached to each and must
        answer synchronously (see the class docstring).

        Installing (or re-installing) a producer invalidates every hot-cache
        entry under the prefix: the new handler may answer differently, and
        the dispatcher must not keep serving its predecessor's Data.
        """
        prefix = as_name(prefix)
        if self.hot_cache is not None:
            self.hot_cache.invalidate_under(prefix)
        owners = self._owning_shards(prefix)
        faces = {
            index: self.shards[index].attach_producer(prefix, handler)
            for index in owners
        }
        self._producers.append(
            _ProducerRecord(prefix=prefix, handler=handler, faces=faces)
        )
        return faces[owners[0]]

    # -------------------------------------------------------------- rebalance

    def resize(self, shards: int) -> RebalanceReport:
        """Change the shard count under live traffic.

        The rebalance is a control-plane operation over the same primitives
        the data plane already trusts, in an order that never drops an
        acknowledged frame:

        1. New shards (on grow) are minted with the node's original build
           parameters, wired to every external face, and handed the node's
           strategy choices — all before any key moves.
        2. The picker switches atomically; from this instant new packets
           hash with the new placement.
        3. Per-shard Content Store capacities are re-split from the node
           budget across the new shard count.
        4. Routes whose shard key changed owner are installed on their new
           shards (at the original cost) before being removed from the old
           ones — make-before-break.
        5. Pending Interests stranded on a shard that no longer owns their
           key are Nacked downstream (``NoRoute``) through the normal
           pipeline, so retrying consumers re-express and re-route; Data
           already egressed is untouched and the boundary byte ledgers stay
           exact.  This runs before producers move, so every moved entry
           is resolved (and counted) here rather than as a side effect of
           the producer face removal in step 6.
        6. Producers whose shard key changed owner are re-homed the same
           way as routes (make-before-break).
        7. Cached Data whose key moved is erased (firing the hot-cache
           coherence callback); on shrink the removed shards' caches are
           cleared and their boundary pairs closed.

        A grow from N to N+1 only moves keys onto the new shard, and a
        shrink only moves keys off the removed ones; what moved is
        reported per category in the returned :class:`RebalanceReport`.
        """
        if shards < 1:
            raise NDNError(f"{self.name}: need at least one shard, got {shards}")
        new_picker = _make_shard_picker(shards)
        old_count = self.num_shards
        report = RebalanceReport(
            at=self.env.now, old_shards=old_count, new_shards=shards
        )

        # 1. Mint and wire new shards before anything routes to them.
        for index in range(old_count, shards):
            shard = Forwarder(
                self.env,
                name=f"{self.name}/shard{index}",
                cs_capacity=self._shard_capacity(self._cs_capacity, index, shards),
                tracer=self.tracer,
            )
            if self.hot_cache is not None:
                shard.cs.on_evict = self.hot_cache.invalidate_name
            for prefix, strategy in self._strategies:
                shard.set_strategy(prefix, strategy)
            self.shards.append(shard)
            for face_id in self._faces:
                self._wire_boundary(face_id, index)

        # 2. Switch placement: new packets hash with the new picker now.
        self._picker = new_picker
        self.num_shards = shards

        # 3. Re-split the node's CS budget across the new shard count.
        for index in range(shards):
            self.shards[index].cs.capacity = self._shard_capacity(
                self._cs_capacity, index, shards
            )

        # 4. Re-home routes: install on new owners, then drop old ones.
        for (prefix, ext_id), old_owners in list(self._registrations.items()):
            new_owners = self._owning_shards(prefix)
            cost = self._registration_costs.get((prefix, ext_id), 0.0)
            for index in [idx for idx in new_owners if idx not in old_owners]:
                shard_side = self._mirrors[(ext_id, index)][1]
                self.shards[index].register_prefix(prefix, shard_side, cost)
                report.routes_added += 1
            for index in [idx for idx in old_owners if idx not in new_owners]:
                pair = self._mirrors.get((ext_id, index))
                if pair is not None:
                    self.shards[index].unregister_prefix(prefix, pair[1])
                report.routes_removed += 1
            self._registrations[(prefix, ext_id)] = new_owners

        # 5. Nack pending Interests whose key changed owner mid-flight,
        # before producers are torn off their old shards.
        for index, shard in enumerate(self.shards):
            if index < shards:
                report.pending_aborted += shard.abort_pending(
                    lambda entry, index=index: (
                        len(entry.name) >= self.key_depth
                        and self._shard_of(entry.name) != index
                    )
                )
            else:  # shard is going away: everything pending is stranded
                report.pending_aborted += shard.abort_pending(lambda entry: True)

        # 6. Re-home producers the same way (make-before-break).
        for record in self._producers:
            new_owners = self._owning_shards(record.prefix)
            added = [idx for idx in new_owners if idx not in record.faces]
            removed = [idx for idx in list(record.faces) if idx not in new_owners]
            if (added or removed) and self.hot_cache is not None:
                self.hot_cache.invalidate_under(record.prefix)
            for index in added:
                record.faces[index] = self.shards[index].attach_producer(
                    record.prefix, record.handler
                )
                report.producers_added += 1
            for index in removed:
                app_face = record.faces.pop(index)
                peer = app_face.peer
                if peer is not None:
                    self.shards[index].remove_face(peer.face_id)
                report.producers_removed += 1

        # 7. Drop moved cache entries (fires hot-cache invalidation).
        for index in range(min(shards, len(self.shards))):
            shard = self.shards[index]
            moved = [
                name for name in shard.cs.names()
                if len(name) >= self.key_depth
                and self._shard_of(name) != index
            ]
            for name in moved:
                shard.cs.erase(name)
            report.cs_entries_dropped += len(moved)
        if shards < old_count:
            for index in range(shards, old_count):
                shard = self.shards[index]
                report.cs_entries_dropped += len(shard.cs)
                shard.cs.clear()
                for face_id in list(self._faces):
                    pair = self._mirrors.pop((face_id, index), None)
                    if pair is not None:
                        pair[0].close()
            del self.shards[shards:]

        self.rebalances.append(report)
        self.tracer.record(
            "shard", "resize", old=old_count, new=shards,
            aborted=report.pending_aborted,
        )
        return report

    def crash_shard(self, index: int) -> int:
        """Abruptly fail one shard worker and recover it cold.

        Models a worker crash plus supervisor restart: every Interest
        pending on the shard is Nacked downstream (``NoRoute``) — the
        dispatcher answering on behalf of the dead worker, which is what
        lets self-healing consumers retransmit instead of waiting out
        their lifetimes — and the shard's Content Store is dropped (a
        restarted worker starts cold).  Tables end empty, faces and routes
        stay intact.  Returns the number of pending Interests aborted.
        """
        if not 0 <= index < len(self.shards):
            raise NDNError(f"{self.name}: no shard {index} to crash")
        shard = self.shards[index]
        aborted = shard.abort_pending(lambda entry: True)
        shard.cs.clear()
        self.tracer.record("shard", "crash", shard=index, aborted=aborted)
        return aborted

    # ------------------------------------------------------------- dispatching

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        """Entry point for packets arriving on an external face."""
        ext_id = face.face_id
        self._dispatched.inc()
        if self.hot_cache is not None and packet.is_interest:
            if self._fast_path(packet, ext_id):
                return
        index = self._picker(
            _key_from_name_bytes(packet.name_bytes, self.key_depth)
        )
        if self.tracer.enabled:
            self.tracer.record(
                "shard", "dispatch", name=packet.name, shard=index, face=ext_id
            )
        self._mirrors[(ext_id, index)][0].send(packet)

    def _fast_path(self, interest: WirePacket, ext_id: int) -> bool:
        """Serve a repeat Interest from the dispatcher hot cache.

        0 decodes and no Name components, counter-enforced; the only
        parsing a hit pays is the Interest's own one-time shallow span
        walk (for the hop-limit check — never a re-walk, and never the
        Data's).  Returns False (take the shard path) on any miss, stale
        entry, or an exhausted hop limit (the owning shard drops those,
        and the cache must not resurrect them).
        """
        cache = self.hot_cache
        assert cache is not None
        template = cache.get(interest.name_bytes, self.env.now)
        if template is None:
            return False
        if interest.hop_limit <= 0:
            # Not served after all: hand the lookup back so the cache's
            # hit ledger keeps matching the exchanges actually answered.
            cache.hits -= 1
            cache.misses += 1
            return False
        if self.tracer.enabled:
            self.tracer.record("shard", "hot-hit", name=interest.name, face=ext_id)
        self._send_out(ext_id, template.detached_view())
        return True

    def _send_out(
        self, ext_id: int, packet: WirePacket, from_shard: Optional[int] = None
    ) -> None:
        if from_shard is not None and self.hot_cache is not None and packet.is_data:
            self._hot_insert(packet, from_shard)
        face = self._faces.get(ext_id)
        if face is None:
            self._dropped_no_face.inc()
            return
        face.send(packet)

    def _hot_insert(self, packet: WirePacket, shard_index: int) -> None:
        """Mirror egress Data into the hot cache (coherence gates apply).

        Admitted only while resident in the owning shard's Content Store —
        the CS eviction callback can then always reach the mirrored copy.
        This runs on every egressed Data, so it is deliberately cheap: the
        name rides over from the shard boundary, the key is one memoised
        slice, and the freshness TLV is *not* read here — the hot cache
        validates it lazily on the entry's first lookup, so cache-hostile
        (no-repeat) workloads never pay a span walk per Data.  The template
        is a detached view of the egress Data — its buffer, never a decoded
        object the consumer of the delivered view attaches later — and every
        serve hands out a detached clone of it in turn.
        """
        cache = self.hot_cache
        assert cache is not None
        arrival = self.shards[shard_index].cs.arrival(packet.name)
        if arrival is None:
            return
        # Age the mirrored entry from the CS arrival time, not egress time:
        # a shard CS may re-serve stale Data (non-MustBeFresh semantics),
        # and anchoring at egress would restart the freshness window and
        # let the fast path serve what the CS itself considers stale.
        cache.insert(packet.name_bytes, packet.detached_view(), arrival)

    # ------------------------------------------------------------------- misc

    def pit_entries(self) -> int:
        """Total pending Interests across every shard (leak check)."""
        return sum(len(shard.pit) for shard in self.shards)

    def boundary_stats(self) -> dict[tuple[int, int], dict[str, dict[str, int]]]:
        """Per (external face, shard) boundary counters, both directions.

        ``dispatcher`` is the dispatcher-side face, ``shard`` the shard-side
        one; a healthy boundary has ``dispatcher.bytes_out ==
        shard.bytes_in`` and vice versa (byte counts are ``len(wire)`` of
        the packets that crossed).
        """
        report: dict[tuple[int, int], dict[str, dict[str, int]]] = {}
        for key, (dispatcher_side, shard_side) in self._mirrors.items():
            report[key] = {
                "dispatcher": dispatcher_side.stats.as_dict(),
                "shard": shard_side.stats.as_dict(),
            }
        return report

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ShardedForwarder {self.name} shards={self.num_shards} faces={len(self._faces)}>"

