"""Inject a fault schedule into a live compute overlay.

The :class:`ChaosDriver` is the execution half of the chaos layer: it walks
a schedule built by :func:`repro.chaos.spec.build_schedule` on the
simulation clock and applies each :class:`~repro.chaos.spec.FaultEvent`
through the overlay's own control surface — no private state is reached
into, so everything the driver does, an operator (or test) could do by
hand:

========================  ====================================================
fault kind                overlay action
========================  ====================================================
``node-kill``             ``overlay.fail_cluster`` (links captured first)
``node-restart``          ``overlay.add_cluster`` with the captured links
``link-down``/``link-up`` ``overlay.set_link_state``
``partition``/``heal``    ``overlay.isolate`` / ``overlay.rejoin``
``shard-crash``           ``ShardedForwarder.crash_shard`` on the gateway
``producer-churn``        withdraw + immediately re-announce prefixes
========================  ====================================================

A fault whose precondition no longer holds — restarting a cluster a
concurrent partition already healed around, flapping a link whose endpoint
is dead, crashing a shard index a rebalance removed — is *skipped and
counted*, never raised: overlapping faults are the point of a chaos
schedule, and the skip decision depends only on overlay state, so replays
of the same (seed, spec) skip identically.

Shard crashes are routed to any cluster whose gateway is a
:class:`~repro.ndn.shard.ShardedForwarder` (discovered automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.chaos.spec import FaultEvent, FaultKind
from repro.core.overlay import ComputeOverlay
from repro.exceptions import OverlayError
from repro.sim.engine import Environment

__all__ = ["ChaosDriver", "InjectionRecord"]


@dataclass(slots=True)
class InjectionRecord:
    """What actually happened when one scheduled fault fired."""

    event: FaultEvent
    applied: bool
    detail: str = ""


@dataclass(slots=True)
class _DownedCluster:
    """A killed cluster plus everything needed to restart it faithfully."""

    cluster: object
    #: ``(peer name, latency_s)`` for every link the kill severed.
    links: list[tuple[str, float]] = field(default_factory=list)


class ChaosDriver:
    """Walks a fault schedule against a :class:`ComputeOverlay`."""

    #: What happened at each fault that fired, in firing order.
    records: list[InjectionRecord]

    def __init__(
        self,
        env: Environment,
        overlay: ComputeOverlay,
        schedule: Sequence[FaultEvent],
    ) -> None:
        self.env = env
        self.overlay = overlay
        self.schedule = list(schedule)
        self.records = []
        self.applied = 0
        self.skipped = 0
        self._downed: dict[str, _DownedCluster] = {}
        self._partitioned: dict[str, list[tuple[str, str]]] = {}
        self._process = None

    # ------------------------------------------------------------------ control

    def start(self):
        """Spawn the injection process; returns it for joining."""
        if self._process is not None:
            raise OverlayError("chaos driver already started")
        self._process = self.env.process(self._run(), name="chaos-driver")
        return self._process

    def _run(self):
        for event in self.schedule:
            delay = event.t - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(event)

    # ---------------------------------------------------------------- injection

    def _apply(self, event: FaultEvent) -> None:
        handler = {
            FaultKind.NODE_KILL: self._kill,
            FaultKind.NODE_RESTART: self._restart,
            FaultKind.LINK_DOWN: self._link_down,
            FaultKind.LINK_UP: self._link_up,
            FaultKind.PARTITION: self._partition,
            FaultKind.HEAL: self._heal,
            FaultKind.SHARD_CRASH: self._shard_crash,
            FaultKind.PRODUCER_CHURN: self._producer_churn,
        }[event.kind]
        applied, detail = handler(event.target)
        self.records.append(InjectionRecord(event=event, applied=applied, detail=detail))
        if applied:
            self.applied += 1
        else:
            self.skipped += 1
        self.overlay.tracer.record(
            "chaos", event.kind.value, target=event.target, applied=applied
        )

    def _kill(self, name: str) -> tuple[bool, str]:
        if name in self._downed:
            return False, "already down"
        if name not in self.overlay.clusters:
            return False, "no such cluster"
        # Heal any partition first so the restart starts from a known link
        # set (the kill severs everything anyway).
        self._partitioned.pop(name, None)
        links = [
            (link.b if link.a == name else link.a, link.latency_s)
            for link in self.overlay.links()
            if name in (link.a, link.b)
        ]
        cluster = self.overlay.fail_cluster(name)
        self._downed[name] = _DownedCluster(cluster=cluster, links=links)
        return True, f"severed {len(links)} link(s)"

    def _restart(self, name: str) -> tuple[bool, str]:
        downed = self._downed.pop(name, None)
        if downed is None:
            return False, "not down"
        # Restore only links whose far end is still alive; a peer that died
        # meanwhile re-links when *it* restarts (its own capture includes us
        # only if our kill came second, so double-links cannot form).
        restorable = [
            (peer, latency) for peer, latency in downed.links
            if peer in self.overlay.clusters or peer in self.overlay.routers
        ]
        self.overlay.add_cluster(downed.cluster, connect_to=restorable)
        return True, f"restored {len(restorable)}/{len(downed.links)} link(s)"

    def _link_down(self, target: str) -> tuple[bool, str]:
        a, b = target.split("|", 1)
        try:
            self.overlay.set_link_state(a, b, up=False)
        except OverlayError as error:
            return False, str(error)
        return True, ""

    def _link_up(self, target: str) -> tuple[bool, str]:
        a, b = target.split("|", 1)
        try:
            self.overlay.set_link_state(a, b, up=True)
        except OverlayError as error:
            return False, str(error)
        return True, ""

    def _partition(self, name: str) -> tuple[bool, str]:
        if name in self._partitioned:
            return False, "already partitioned"
        if name in self._downed or name not in self.overlay.clusters:
            return False, "cluster not alive"
        cut = self.overlay.isolate(name)
        self._partitioned[name] = cut
        return True, f"cut {len(cut)} link(s)"

    def _heal(self, name: str) -> tuple[bool, str]:
        cut = self._partitioned.pop(name, None)
        if cut is None:
            return False, "not partitioned"
        if name not in self.overlay.clusters:
            return False, "cluster died while partitioned"
        healed = self.overlay.rejoin(name)
        return True, f"healed {len(healed)} link(s)"

    def _shard_crash(self, target: str) -> tuple[bool, str]:
        name, _slash, index_text = target.rpartition("/")
        index = int(index_text)
        cluster = self.overlay.clusters.get(name)
        if cluster is None or name in self._downed:
            return False, "cluster not alive"
        gateway = cluster.gateway_nfd
        if not hasattr(gateway, "crash_shard"):
            return False, "gateway is not sharded"
        if index >= len(gateway.shards):
            return False, f"no shard {index} (node has {len(gateway.shards)})"
        aborted = gateway.crash_shard(index)
        return True, f"aborted {aborted} pending Interest(s)"

    def _producer_churn(self, name: str) -> tuple[bool, str]:
        cluster = self.overlay.clusters.get(name)
        if cluster is None or name in self._downed:
            return False, "cluster not alive"
        cluster.withdraw_prefixes()
        cluster.announce_prefixes()
        return True, "withdrew and re-announced"

    # ---------------------------------------------------------------- reporting

    def report(self) -> dict[str, object]:
        """Injection outcome: per-kind applied counts plus the skip ledger."""
        by_kind: dict[str, int] = {}
        for record in self.records:
            if record.applied:
                key = record.event.kind.value
                by_kind[key] = by_kind.get(key, 0) + 1
        return {
            "events": len(self.schedule),
            "fired": len(self.records),
            "applied": self.applied,
            "skipped": self.skipped,
            "by_kind": by_kind,
            "still_down": sorted(self._downed),
            "still_partitioned": sorted(self._partitioned),
        }
