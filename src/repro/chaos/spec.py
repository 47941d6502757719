"""Deterministic fault schedules: the chaos mirror of the workload library.

Generation is split from injection exactly as in :mod:`repro.workload`:

1. :func:`build_schedule` expands a :class:`ChaosSpec` (fault mix x targets
   x horizon) into a concrete, time-ordered list of :class:`FaultEvent`,
   drawing every fault time, target and outage duration from named
   ``SeededRNG`` streams.  The schedule is the reproducibility contract:
   :func:`schedule_hash` pins it, identical seeds produce byte-identical
   schedules, and a recorded schedule replays against any overlay without
   re-consuming entropy.
2. :class:`~repro.chaos.driver.ChaosDriver` walks a schedule on the
   simulation clock and injects each fault through the overlay's own
   control surface (``fail_cluster``/``add_cluster``, link state toggles,
   ``isolate``/``rejoin``, ``crash_shard``, prefix churn).

Disruptive faults are emitted as explicit *paired* events — a kill
schedules its restart, a link-down its link-up, a partition its heal — so
the schedule alone says when the system should be whole again; recovery
never depends on driver-side bookkeeping surviving a replay.

Nothing here reads a wall clock or ambient entropy (reprolint RL010
applies to this package).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from repro.sim.rng import SeededRNG

__all__ = [
    "FaultKind",
    "FaultEvent",
    "ChaosSpec",
    "build_schedule",
    "schedule_hash",
]


class FaultKind(str, Enum):
    """Every fault class the chaos layer can inject."""

    #: Abrupt cluster failure: links drop, no prefix withdrawal.
    NODE_KILL = "node-kill"
    #: Re-add a killed cluster with its original links and announcements.
    NODE_RESTART = "node-restart"
    #: Silently drop traffic on one link, both directions.
    LINK_DOWN = "link-down"
    #: Bring a flapped link back.
    LINK_UP = "link-up"
    #: Down every link touching one node (network partition).
    PARTITION = "partition"
    #: Heal a partition.
    HEAL = "heal"
    #: Crash one shard worker of a sharded gateway (cold restart).
    SHARD_CRASH = "shard-crash"
    #: Withdraw and immediately re-announce a cluster's prefixes.
    PRODUCER_CHURN = "producer-churn"


@dataclass(slots=True, frozen=True)
class FaultEvent:
    """One scheduled fault: sequence number, injection time, kind, target.

    ``target`` is the node name for node faults, ``"a|b"`` for link
    faults, and ``"node/<shard index>"`` for shard crashes.
    """

    seq: int
    t: float
    kind: FaultKind
    target: str

    def line(self) -> str:
        """The canonical text form hashed by :func:`schedule_hash`.

        ``repr`` of the float keeps full precision, so two schedules hash
        equal exactly when they are bit-identical.
        """
        return f"{self.seq} {self.t!r} {self.kind.value} {self.target}"


def schedule_hash(schedule: "list[FaultEvent] | tuple[FaultEvent, ...]") -> str:
    """A stable sha256 over the full fault schedule."""
    digest = hashlib.sha256()
    for event in schedule:
        digest.update(event.line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class ChaosSpec:
    """What to break: fault counts x eligible targets x time horizon.

    Counts are exact (not rates): ``kills=3`` schedules exactly three
    kill/restart pairs.  Fault times are drawn uniformly over the first
    ``injection_window`` fraction of the horizon so every outage — whose
    duration is uniform in ``[min_outage_s, max_outage_s]`` — can complete
    its paired recovery inside the horizon.
    """

    label: str
    horizon_s: float
    #: Cluster names eligible for kill/restart and partition/heal.
    clusters: tuple[str, ...] = ()
    #: ``(a, b)`` overlay links eligible to flap.
    links: tuple[tuple[str, str], ...] = ()
    #: ``(node name, shard count)`` sharded gateways eligible to crash.
    shards: tuple[tuple[str, int], ...] = ()
    #: Cluster names whose prefix announcements churn.
    producers: tuple[str, ...] = ()
    kills: int = 0
    flaps: int = 0
    partitions: int = 0
    shard_crashes: int = 0
    churns: int = 0
    min_outage_s: float = 0.5
    max_outage_s: float = 5.0
    injection_window: float = 0.8

    def describe(self) -> dict:
        return {
            "label": self.label,
            "horizon_s": self.horizon_s,
            "clusters": list(self.clusters),
            "links": [list(link) for link in self.links],
            "shards": [list(entry) for entry in self.shards],
            "producers": list(self.producers),
            "kills": self.kills,
            "flaps": self.flaps,
            "partitions": self.partitions,
            "shard_crashes": self.shard_crashes,
            "churns": self.churns,
            "outage_s": [self.min_outage_s, self.max_outage_s],
        }

    def _validate(self) -> None:
        if self.horizon_s <= 0:
            raise ValueError(f"chaos horizon must be positive, got {self.horizon_s}")
        if not 0.0 < self.injection_window <= 1.0:
            raise ValueError(
                f"injection window must be in (0, 1], got {self.injection_window}"
            )
        if not 0.0 <= self.min_outage_s <= self.max_outage_s:
            raise ValueError(
                f"need 0 <= min_outage_s <= max_outage_s, got "
                f"{self.min_outage_s}..{self.max_outage_s}"
            )
        for count, pool, what in (
            (self.kills, self.clusters, "kills"),
            (self.partitions, self.clusters, "partitions"),
            (self.flaps, self.links, "flaps"),
            (self.shard_crashes, self.shards, "shard crashes"),
            (self.churns, self.producers, "producer churns"),
        ):
            if count < 0:
                raise ValueError(f"fault counts must be >= 0, got {count} {what}")
            if count > 0 and not pool:
                raise ValueError(
                    f"chaos spec {self.label!r} schedules {what} "
                    f"but lists no eligible targets"
                )


def build_schedule(spec: ChaosSpec, rng: SeededRNG) -> list[FaultEvent]:
    """Expand ``spec`` into a concrete, replayable fault schedule.

    Streams are consumed in a fixed per-fault order (time, then target,
    then duration where the fault has one), and fault classes are expanded
    in a fixed class order, so a given (seed, spec) always yields the
    identical schedule.  Events are sorted by injection time with the
    build order breaking ties, then renumbered.
    """
    spec._validate()
    window = spec.horizon_s * spec.injection_window
    raw: list[tuple[float, int, FaultKind, str]] = []

    def outage(at: float) -> float:
        length = rng.uniform(spec.min_outage_s, spec.max_outage_s, stream="fault-durations")
        # Clamp the recovery inside the horizon so the schedule always
        # ends with the overlay whole.
        return min(at + length, spec.horizon_s)

    def emit(at: float, kind: FaultKind, target: str) -> None:
        raw.append((at, len(raw), kind, target))

    for _ in range(spec.kills):
        at = rng.uniform(0.0, window, stream="fault-times")
        target = rng.choice(spec.clusters, stream="fault-targets")
        emit(at, FaultKind.NODE_KILL, target)
        emit(outage(at), FaultKind.NODE_RESTART, target)
    for _ in range(spec.flaps):
        at = rng.uniform(0.0, window, stream="fault-times")
        a, b = rng.choice(spec.links, stream="fault-targets")
        emit(at, FaultKind.LINK_DOWN, f"{a}|{b}")
        emit(outage(at), FaultKind.LINK_UP, f"{a}|{b}")
    for _ in range(spec.partitions):
        at = rng.uniform(0.0, window, stream="fault-times")
        target = rng.choice(spec.clusters, stream="fault-targets")
        emit(at, FaultKind.PARTITION, target)
        emit(outage(at), FaultKind.HEAL, target)
    for _ in range(spec.shard_crashes):
        at = rng.uniform(0.0, window, stream="fault-times")
        node, count = rng.choice(spec.shards, stream="fault-targets")
        index = rng.integer(0, max(0, count - 1), stream="fault-targets")
        emit(at, FaultKind.SHARD_CRASH, f"{node}/{index}")
    for _ in range(spec.churns):
        at = rng.uniform(0.0, window, stream="fault-times")
        target = rng.choice(spec.producers, stream="fault-targets")
        emit(at, FaultKind.PRODUCER_CHURN, target)

    raw.sort(key=lambda item: (item[0], item[1]))
    return [
        FaultEvent(seq=seq, t=at, kind=kind, target=target)
        for seq, (at, _order, kind, target) in enumerate(raw)
    ]
