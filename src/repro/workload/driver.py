"""Drive modelled workloads through the data and service planes.

The driver separates *generation* from *execution*:

1. :func:`build_trace` expands a :class:`WorkloadSpec` (popularity model x
   arrival process x request budget) into a concrete request trace — a
   list of :class:`TraceRecord` — using only named ``SeededRNG`` streams.
   The trace is the reproducibility contract: :func:`trace_hash` pins it,
   identical seeds produce byte-identical traces, and a recorded trace
   replays against any node without re-consuming entropy.
2. :class:`WorkloadDriver` walks a trace on the simulation clock through a
   :class:`~repro.ndn.client.Consumer` attached to any forwarder-shaped
   node (:class:`~repro.ndn.forwarder.Forwarder` or
   :class:`~repro.ndn.shard.ShardedForwarder`), recording per-request
   outcome and simulated latency plus the node's cache counters into a
   :class:`WorkloadReport`.
3. :class:`LIDCWorkloadDriver` maps the same traces onto the service
   plane: each trace record becomes a :class:`~repro.core.spec.
   ComputeRequest` submitted through an :class:`~repro.core.client.
   LIDCClient` at the record's arrival time.

Nothing here reads a wall clock or ambient entropy (reprolint RL002/RL010
apply to this package); wall-clock measurement belongs to the benchmarks
that wrap the driver.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.exceptions import InterestTimeout
from repro.ndn.client import Consumer, RetryPolicy
from repro.sim.engine import Environment, Event
from repro.sim.rng import SeededRNG
from repro.workload.arrivals import ArrivalProcess
from repro.workload.popularity import PopularityModel

__all__ = [
    "TraceRecord",
    "WorkloadSpec",
    "WorkloadReport",
    "WorkloadDriver",
    "LIDCWorkloadDriver",
    "build_trace",
    "trace_hash",
]


@dataclass(slots=True, frozen=True)
class TraceRecord:
    """One scheduled request: sequence number, arrival time, name."""

    seq: int
    t: float
    name: str

    def line(self) -> str:
        """The canonical text form hashed by :func:`trace_hash`.

        ``repr`` of the float keeps full precision, so two traces hash
        equal exactly when they are bit-identical.
        """
        return f"{self.seq} {self.t!r} {self.name}"


def trace_hash(trace: "list[TraceRecord] | tuple[TraceRecord, ...]") -> str:
    """A stable sha256 over the full request trace."""
    digest = hashlib.sha256()
    for record in trace:
        digest.update(record.line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class WorkloadSpec:
    """What to generate: popularity x arrivals x budget x Interest shape."""

    label: str
    popularity: PopularityModel
    arrivals: ArrivalProcess
    #: Stop after this many requests ...
    requests: int = 1000
    #: ... or when the arrival clock passes this horizon, whichever first
    #: (``None`` = request budget only).
    horizon_s: Optional[float] = None
    lifetime_s: float = 4.0
    must_be_fresh: bool = False
    #: Self-healing retry for every Interest (a
    #: :class:`~repro.ndn.client.RetryPolicy`); ``None`` = no retransmission.
    retry_policy: Optional["RetryPolicy"] = None

    def describe(self) -> dict:
        return {
            "label": self.label,
            "popularity": self.popularity.describe(),
            "arrivals": self.arrivals.describe(),
            "requests": self.requests,
            "horizon_s": self.horizon_s,
        }


def build_trace(spec: WorkloadSpec, rng: SeededRNG) -> list[TraceRecord]:
    """Expand ``spec`` into a concrete, replayable request trace.

    Consumes the spec's arrival and popularity streams of ``rng`` in a
    fixed order (arrival time first, then name), so a given (seed, spec)
    always yields the identical trace.
    """
    if spec.requests < 1:
        raise ValueError(f"request budget must be >= 1, got {spec.requests}")
    trace: list[TraceRecord] = []
    times: Iterator[float] = spec.arrivals.times(rng)
    for seq in range(spec.requests):
        t = next(times)
        if spec.horizon_s is not None and t > spec.horizon_s:
            break
        trace.append(TraceRecord(seq=seq, t=t, name=spec.popularity.next_name(rng)))
    if not trace:
        raise ValueError(
            f"workload {spec.label!r}: no arrivals inside horizon "
            f"{spec.horizon_s}s — raise the rate or the horizon"
        )
    return trace


@dataclass
class WorkloadReport:
    """Outcome of one driven workload (all latencies in simulated seconds)."""

    label: str
    requests: int = 0
    satisfied: int = 0
    timeouts: int = 0
    nacks: int = 0
    trace_hash: str = ""
    first_arrival_s: float = 0.0
    last_arrival_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: One ``(sim time, name, cause)`` per unserved request — ``"timeout"`` or
    #: the Nack's reason — so a soak can demand a typed cause for each.
    failures: list[tuple[float, str, str]] = field(default_factory=list)
    #: Cache counters harvested from the node after the run (hot-cache
    #: hits/misses, per-shard CS hits/misses) — empty for bare nodes.
    cache: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)


def _cache_stats(node) -> dict:
    """Hot-cache and Content-Store counters, duck-typed across node kinds."""
    stats: dict = {}
    hot = getattr(node, "hot_cache", None)
    if hot is not None:
        stats["hot_cache"] = {
            "hits": hot.hits,
            "misses": hot.misses,
            "insertions": hot.insertions,
            "invalidations": hot.invalidations,
            "expirations": hot.expirations,
            "evictions": hot.evictions,
        }
    shards = getattr(node, "shards", None)
    if shards is not None:
        stats["shard_cs"] = [
            {"hits": shard.cs.hits, "misses": shard.cs.misses} for shard in shards
        ]
        stats["shard_interests"] = [
            int(shard.metrics.counter("interests_received").value)
            for shard in shards
        ]
    else:
        cs = getattr(node, "cs", None)
        if cs is not None:
            stats["cs"] = {"hits": cs.hits, "misses": cs.misses}
    return stats


class WorkloadDriver:
    """Drive one trace through a Consumer attached to ``node``.

    The trace is either built from ``spec`` at construction or injected
    via ``trace=`` (replay of a recorded run).  :meth:`run` schedules each
    record at its arrival time on the simulation clock, drives the
    environment until every request has completed (Data, Nack or
    timeout), and returns the :class:`WorkloadReport`.
    """

    def __init__(
        self,
        env: Environment,
        node,
        spec: WorkloadSpec,
        rng: Optional[SeededRNG] = None,
        trace: Optional[list[TraceRecord]] = None,
        on_data: Optional[Callable[[TraceRecord, object], None]] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.spec = spec
        if trace is None:
            if rng is None:
                raise ValueError("need an rng to generate a trace (or pass trace=)")
            trace = build_trace(spec, rng)
        self.trace = trace
        self.on_data = on_data
        self.consumer = Consumer(env, node, name=f"wl:{spec.label}")
        self._completed = 0
        self._done: Optional[Event] = None
        self.report = WorkloadReport(
            label=spec.label,
            requests=len(trace),
            trace_hash=trace_hash(trace),
            first_arrival_s=trace[0].t,
            last_arrival_s=trace[-1].t,
            spec=spec.describe(),
        )

    # ------------------------------------------------------------------ running

    def run(self) -> WorkloadReport:
        """Drive the whole trace; returns the filled-in report."""
        self._done = self.env.event(name=f"workload-done:{self.spec.label}")
        start = self.env.now
        self.env.process(self._pump(start), name=f"workload:{self.spec.label}")
        self.env.run(until=self._done)
        self.report.cache = _cache_stats(self.node)
        return self.report

    def _pump(self, start: float):
        for record in self.trace:
            at = start + record.t
            delay = at - self.env.now
            if delay > 0.0:
                yield self.env.timeout(delay)
            completion = self.consumer.express_interest(
                record.name,
                lifetime=self.spec.lifetime_s,
                must_be_fresh=self.spec.must_be_fresh,
                retry_policy=self.spec.retry_policy,
            )
            sent_at = self.env.now
            completion.callbacks.append(
                lambda event, _record=record, _sent=sent_at: self._finish(
                    _record, _sent, event
                )
            )

    def _finish(self, record: TraceRecord, sent_at: float, event: Event) -> None:
        if event.ok:
            self.report.satisfied += 1
            self.report.latencies_s.append(self.env.now - sent_at)
            if self.on_data is not None:
                self.on_data(record, event.value)
        elif isinstance(event.value, InterestTimeout):
            self.report.timeouts += 1
            self.report.failures.append((self.env.now, record.name, "timeout"))
        else:
            self.report.nacks += 1
            self.report.failures.append((self.env.now, record.name, event.value.reason))
        self._completed += 1
        if self._completed == len(self.trace) and self._done is not None:
            if not self._done.triggered:
                self._done.succeed(self.report)


class LIDCWorkloadDriver:
    """Map a trace onto the service plane: one ComputeRequest per record.

    Each record's catalog name becomes the request's ``dataset`` (slashes
    folded so it stays one name component), submitted through an
    :class:`~repro.core.client.LIDCClient` at the record's arrival time
    via the handle scheduler's ``delay_s``.  Popularity skew then
    exercises the gateway's result caching exactly as it does the data
    plane's Content Stores.
    """

    def __init__(
        self,
        env: Environment,
        client,
        spec: WorkloadSpec,
        rng: Optional[SeededRNG] = None,
        trace: Optional[list[TraceRecord]] = None,
        app: str = "BLAST",
        cpu: float = 2,
        memory_gb: float = 4,
        reference: str = "HUMAN",
        dataset_fn: Optional[Callable[[TraceRecord], str]] = None,
    ) -> None:
        from repro.core.spec import ComputeRequest

        self.env = env
        self.client = client
        self.spec = spec
        if trace is None:
            if rng is None:
                raise ValueError("need an rng to generate a trace (or pass trace=)")
            trace = build_trace(spec, rng)
        self.trace = trace
        self.trace_hash = trace_hash(trace)
        if dataset_fn is None:
            # Fold the catalog name into one name component; callers whose
            # catalogs are real dataset ids pass ``dataset_fn=lambda r: r.name``.
            def dataset_fn(record: TraceRecord) -> str:
                return record.name.strip("/").replace("/", "-")
        self.requests = [
            ComputeRequest(
                app=app,
                cpu=cpu,
                memory_gb=memory_gb,
                dataset=dataset_fn(record),
                reference=reference,
            )
            for record in trace
        ]

    def submit_all(self, unique: bool = False) -> list:
        """Submit every record's request at its arrival offset.

        ``unique=False`` (the default) keeps the canonical request name,
        so repeat draws of a hot dataset are answerable by the gateway's
        result cache — the service-plane analogue of a CS hit.
        """
        return [
            self.client.submit(request, unique=unique, delay_s=record.t)
            for record, request in zip(self.trace, self.requests)
        ]

    def run(self) -> dict:
        """Submit, wait for every job session, and summarise."""
        handles = self.submit_all()
        self.env.run(until=self.client.wait_all(handles))
        accepted = sum(
            1 for handle in handles
            if handle.submission is not None and handle.submission.accepted
        )
        return {
            "label": self.spec.label,
            "submitted": len(handles),
            "accepted": accepted,
            "trace_hash": self.trace_hash,
            "makespan_s": self.env.now,
            "spec": self.spec.describe(),
        }
