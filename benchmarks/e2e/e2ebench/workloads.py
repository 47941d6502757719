"""The four workloads: seeded inputs, how a request is issued, how it is checked.

A :class:`Scenario` owns one freshly built ``overlay3`` with its datasets
loaded and its inputs generated; :mod:`e2ebench.measure` pumps the trace
through it.  Everything random is drawn from ``SeededRNG(seed)`` children,
so one seed gives one trace, one fault schedule and one set of payloads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.chaos import ChaosDriver, ChaosSpec, FaultKind, build_schedule, schedule_hash
from repro.core import naming
from repro.core.spec import ComputeRequest
from repro.exceptions import InterestTimeout
from repro.ndn.client import Consumer, RetryPolicy
from repro.sim.rng import SeededRNG
from repro.workload import (
    PoissonArrivals,
    PopularityModel,
    WorkloadSpec,
    ZipfPopularity,
    build_trace,
    trace_hash,
)

from e2ebench import config
from e2ebench.stack import Stack, build_overlay3

#: Faults whose injection interrupts service (recovery is measured from them).
DISRUPTIVE = (FaultKind.NODE_KILL, FaultKind.LINK_DOWN, FaultKind.PARTITION,
              FaultKind.SHARD_CRASH, FaultKind.PRODUCER_CHURN)


@dataclass(slots=True)
class Outcome:
    """How one request ended, as the harness accounts for it."""

    served: bool
    latency_s: float = 0.0
    #: Interests the client expressed for this request (1 for a fetch;
    #: submit + polls + result fetch for a job).
    expressed: int = 1
    polls: int = 0
    cluster: str = ""
    #: Failure class ("timeout", "nack", "job") or an output-check message.
    error: str = ""
    wrong_output: bool = False


class CyclicNames(PopularityModel):
    """Round-robin over a fixed name list; consumes no entropy."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        self._next = 0

    def next_name(self, rng: SeededRNG) -> str:
        name = self.names[self._next % len(self.names)]
        self._next += 1
        return name

    def describe(self) -> dict:
        return {"model": "cyclic", "names": len(self.names)}


class Scenario:
    """One workload bound to one built stack."""

    name = ""
    lifetime_s = 4.0
    retry_policy: Optional[RetryPolicy] = None

    def __init__(self, seed: int, requests: int, scale: float = 1.0) -> None:
        self.root = SeededRNG(seed)
        #: Requests in the timed region; the warm-up slice comes on top.
        self.requests = requests
        #: Below 1 for runs shorter than a second (the smoke test): the
        #: placeholder catalog shrinks with the trace, or such a run would
        #: be nothing but set-up.
        self.catalog_size = max(256, round(config.CATALOG_SIZE * min(1.0, scale)))
        self.warmup = max(1, round(requests * config.WARMUP_FRACTION))
        self.hashes: dict[str, str] = {}
        self.stack: Stack = build_overlay3(seed)
        self.load()
        started = time.perf_counter()
        self.trace = self.generate()
        self.trace_build_s = time.perf_counter() - started
        self.hashes["trace"] = trace_hash(self.trace)

    # -- to override -----------------------------------------------------

    def load(self) -> None:
        """Publish datasets and attach clients."""
        raise NotImplementedError

    def generate(self) -> list:
        """The full request trace, warm-up slice first."""
        raise NotImplementedError

    def start(self) -> None:
        """Spawn background processes (fault injection); default none."""

    def issue(self, index: int, record):
        """Express request ``index``; returns its completion event."""
        consumer = self.stack.consumers[index % len(self.stack.consumers)]
        return consumer.express_interest(
            record.name, lifetime=self.lifetime_s, retry_policy=self.retry_policy
        )

    def settle(self, record, event, sent_at: float) -> Outcome:
        """Classify a finished fetch and check the Data against what was published."""
        if not event.ok:
            kind = "timeout" if isinstance(event.value, InterestTimeout) else "nack"
            return Outcome(served=False, error=kind)
        outcome = Outcome(served=True, latency_s=self.stack.env.now - sent_at)
        if bytes(event.value.content) != self.expected_content(record.name):
            outcome.wrong_output = True
            outcome.error = f"content of {record.name} differs from what was published"
        return outcome

    def expected_content(self, name: str) -> bytes:
        raise NotImplementedError

    def drain_s(self) -> float:
        """Simulated seconds to run on after the last completion (PIT lifetimes)."""
        return 2.0 * self.lifetime_s + 1.0

    def shape(self, result: dict) -> list[str]:
        """Violations of the shape this workload was sized to have."""
        return []

    # -- shared helpers ---------------------------------------------------

    def total_requests(self) -> int:
        return self.warmup + self.requests

    def attach_consumers(self) -> None:
        self.stack.consumers = [
            Consumer(self.stack.env, edge, name=f"consumer-{index}",
                     rng=self.root.spawn(f"consumer-{index}"))
            for index, edge in enumerate(self.stack.edges)
        ]

    def publish_catalog(self) -> None:
        """The placeholder datasets, identical on every cluster.

        Declared sizes and description lengths are seeded, so manifests (and
        with them Data sizes and miss-path latencies) differ from dataset to
        dataset and from seed to seed instead of collapsing onto one value.
        """
        rng = self.root.spawn("catalog")
        self.manifests: dict[str, bytes] = {}
        for index in range(self.catalog_size):
            dataset_id = f"ds{index:05d}"
            size = rng.integer(10**6, 10**8, stream="sizes")
            description = "d" * rng.integer(0, 200, stream="descriptions")
            for cluster in self.stack.clusters.values():
                record = cluster.datalake.publish_placeholder(
                    dataset_id, size, description=description)
            self.manifests[str(naming.data_name(dataset_id))] = record.manifest_bytes()


class DataHot(Scenario):
    name = "data_hot"
    alpha = config.HOT_ALPHA

    def load(self) -> None:
        self.publish_catalog()
        self.attach_consumers()

    def rate_per_s(self) -> float:
        return config.HOT_RATE_PER_S

    def generate(self) -> list:
        spec = WorkloadSpec(
            label=self.name,
            popularity=ZipfPopularity(self.alpha, catalog=list(self.manifests)),
            arrivals=PoissonArrivals(self.rate_per_s()),
            requests=self.total_requests(),
        )
        return build_trace(spec, self.root.spawn("workload"))

    def expected_content(self, name: str) -> bytes:
        return self.manifests[name]

    def shape(self, result: dict) -> list[str]:
        problems = []
        counts = result["counters"]
        lookups = counts["hot.hits"] + counts["hot.misses"]
        if lookups and counts["hot.hits"] / lookups < 0.2:
            problems.append(f"hot cache hit ratio {counts['hot.hits'] / lookups:.3f} < 0.2")
        if result["retransmissions"]:
            problems.append(f"data_hot retransmitted {result['retransmissions']} Interests")
        return problems


class DataScan(Scenario):
    name = "data_scan"

    def load(self) -> None:
        payloads = self.root.spawn("scan").stream("payload")
        tails = self.root.spawn("scan")
        segment = 8192  # the file server's default segment size
        self.payloads: dict[str, bytes] = {}
        self.names: list[str] = []
        by_dataset = []
        for index in range(config.SCAN_DATASETS):
            # Every dataset has the same segment count (the name count is the
            # workload); the id's length and the last segment's fill are
            # seeded, so packet sizes are not one constant.
            dataset_id = f"scan{index:03d}" + "x" * tails.integer(0, 200, stream="pad")
            tail = tails.integer(1, segment, stream="tail")
            size = (config.SCAN_SEGMENTS_PER_DATASET - 1) * segment + tail
            payload = payloads.bytes(size)
            for cluster in self.stack.clusters.values():
                cluster.datalake.publish_bytes(dataset_id, payload)
            self.payloads[dataset_id] = payload
            base = naming.data_name(dataset_id)
            by_dataset.append(
                [str(base.append(f"seg={n}")) for n in range(config.SCAN_SEGMENTS_PER_DATASET)]
            )
        # Segment-major order: the first SCAN_DATASETS requests touch every
        # dataset, so the file server's lazy segment caches all build inside
        # the warm-up slice, and consecutive names land on different shards.
        for n in range(config.SCAN_SEGMENTS_PER_DATASET):
            self.names.extend(names[n] for names in by_dataset)
        self.attach_consumers()

    def generate(self) -> list:
        spec = WorkloadSpec(
            label=self.name,
            popularity=CyclicNames(self.names),
            arrivals=PoissonArrivals(config.SCAN_RATE_PER_S),
            requests=self.total_requests(),
        )
        return build_trace(spec, self.root.spawn("workload"))

    def expected_content(self, name: str) -> bytes:
        _ndn, _k8s, _data, dataset_id, seg = name.strip("/").split("/")
        start = int(seg[len("seg="):]) * 8192
        return self.payloads[dataset_id][start:start + 8192]

    def shape(self, result: dict) -> list[str]:
        counts = result["counters"]
        problems = [
            f"{key} = {counts[key]:g}, expected exactly 0"
            for key in ("edge.cs.hits", "gateway.cs.hits", "datalake.cs.hits", "hot.hits")
            if counts[key]
        ]
        return problems


class ComputePlace(Scenario):
    name = "compute_place"
    lifetime_s = 10.0  # the LIDC client's control-plane lifetime
    #: Congestion Nacks from a full overlay are retried, not failed: the
    #: benchmark's contract is that no operation fails.
    retry_policy = RetryPolicy(
        max_retries=10, initial_backoff_s=5.0, multiplier=2.0, max_backoff_s=60.0,
        jitter=0.5, retry_nacks=True,
    )

    def load(self) -> None:
        # One synthetic accession per modelled runtime: the runtime model
        # scales its calibrated rice coefficients by base count.
        model = self.stack.model
        baseline_s = model.runtime_seconds(
            "SRR2931415", cpu=config.COMPUTE_CPU, memory_gb=config.COMPUTE_MEMORY_GB
        )
        baseline_bases = 21_500_000 * 101
        self.accessions = []
        for index, runtime_s in enumerate(config.COMPUTE_RUNTIMES_S):
            accession = f"SRR90000{index:02d}"
            reads = round(baseline_bases * runtime_s / baseline_s / 100)
            self.stack.registry.register_synthetic(
                accession, genome_type="SYNTHETIC", read_count=reads, read_length=100
            )
            self.accessions.append(accession)
        self.stack.clients = [
            self.stack.overlay.client(edge.name, name=f"client-{index}",
                                      retry_policy=self.retry_policy)
            for index, edge in enumerate(self.stack.edges)
        ]

    def generate(self) -> list:
        model = self.stack.model
        mean_service_s = sum(
            model.runtime_seconds(a, cpu=config.COMPUTE_CPU, memory_gb=config.COMPUTE_MEMORY_GB)
            for a in self.accessions
        ) / len(self.accessions)
        # Job slots left beside the system pods (NFDs, file server) on each node.
        slots = sum(
            int(cluster.cluster.scheduler.node_free_capacity(node).cpu // config.COMPUTE_CPU)
            for cluster in self.stack.clusters.values()
            for node in cluster.cluster.nodes()
        )
        rate = config.COMPUTE_UTILISATION * slots / mean_service_s
        spec = WorkloadSpec(
            label=self.name,
            popularity=CyclicNames(self.accessions),
            arrivals=PoissonArrivals(rate),
            requests=self.total_requests(),
        )
        return build_trace(spec, self.root.spawn("workload"))

    def issue(self, index: int, record):
        client = self.stack.clients[index % len(self.stack.clients)]
        request = ComputeRequest(
            app="BLAST", cpu=config.COMPUTE_CPU, memory_gb=config.COMPUTE_MEMORY_GB,
            dataset=record.name, reference="HUMAN",
        )
        return client.submit(request, unique=True, fetch_result=True).done

    def settle(self, record, event, sent_at: float) -> Outcome:
        job = event.value  # a JobOutcome: handle.done never fails
        polls = job.status_polls
        expressed = 1 + polls + (1 if "result_retrieved" in job.timeline else 0)
        if not job.succeeded or "result_retrieved" not in job.timeline:
            return Outcome(served=False, expressed=expressed, polls=polls,
                           error=f"job: {job.error}")
        outcome = Outcome(
            served=True, latency_s=job.timeline["finished"] - job.timeline["submitted"],
            expressed=expressed, polls=polls, cluster=job.submission.cluster or "",
        )
        job_id = job.submission.job_id
        expected_size = self.stack.model.output_size_bytes(record.name)
        if (job.result_name != naming.data_name(f"{job_id}-output")
                or job.result_size_bytes != expected_size
                or outcome.cluster not in self.stack.clusters):
            outcome.wrong_output = True
            outcome.error = f"result of {job_id} ({job.result_name}) does not match the job"
        return outcome

    def drain_s(self) -> float:
        return 2.0 * self.lifetime_s + 61.0  # the longest status-poll lifetime

    def shape(self, result: dict) -> list[str]:
        problems = []
        counts = result["counters"]
        polls = result["polls"] / max(1, result["served"])
        if not 8 <= polls <= 40:
            problems.append(f"{polls:.1f} status polls per job, expected 8-40")
        retried = counts["gateway.compute_rejected_capacity"] / max(1, result["attempted"])
        if retried < 0.2:
            problems.append(f"{retried:.3f} capacity Nacks per submission, expected >= 0.2")
        return problems


class ChaosRetry(DataHot):
    name = "chaos_retry"
    alpha = config.CHAOS_ALPHA
    storm_seed: Optional[int] = config.CHAOS_STORM_SEED
    lifetime_s = config.CHAOS_LIFETIME_S
    #: Backoff sums to ~9 s before the budget is spent, several times the
    #: longest scheduled outage, so a request outlives any fault that hits it.
    retry_policy = RetryPolicy(
        max_retries=12, initial_backoff_s=0.05, multiplier=2.0, max_backoff_s=1.0,
        jitter=0.25, deadline_s=15.0, retry_nacks=True,
    )

    def rate_per_s(self) -> float:
        return self.total_requests() / config.CHAOS_HORIZON_S

    def generate(self) -> list:
        names = tuple(name for name, _l, _n, _s in config.CLUSTERS)
        spec = ChaosSpec(
            label=self.name,
            horizon_s=config.CHAOS_HORIZON_S,
            clusters=names,
            links=tuple((edge, cluster) for edge in config.EDGES for cluster in names),
            shards=tuple((n, s) for n, _l, _nodes, s in config.CLUSTERS if s > 1),
            producers=names,
            kills=3, flaps=16, partitions=8, shard_crashes=8, churns=4,
            min_outage_s=0.5, max_outage_s=2.0,
        )  # 2 * (3 + 16 + 8) + 8 + 4 = 66 events
        storm = self.root.spawn("storm") if self.storm_seed is None else SeededRNG(self.storm_seed)
        self.schedule = build_schedule(spec, storm)
        self.hashes["schedule"] = schedule_hash(self.schedule)
        return super().generate()

    def start(self) -> None:
        stack = self.stack
        self.driver = ChaosDriver(stack.env, stack.overlay, self.schedule)
        self.driver.start()
        stack.env.process(self._resize(), name="bench-resize")

    def _resize(self):
        """Live rebalance of cluster-a's gateway: 2 -> 3 -> 2 shards."""
        gateway = self.stack.clusters["cluster-a"].gateway_nfd
        for shards in (3, 2):
            yield self.stack.env.timeout(config.CHAOS_HORIZON_S / 3.0)
            self.stack.note()  # a resize removes producer faces, a shrink whole shards
            gateway.resize(shards)

    def drain_s(self) -> float:
        return self.retry_policy.deadline_s + 2.0 * self.lifetime_s + 1.0

    def shape(self, result: dict) -> list[str]:
        problems = []
        retransmits = result["retransmissions"] / result["exchanges"]
        if retransmits < 0.10:
            problems.append(f"retransmit ratio {retransmits:.3f} < 0.10")
        if len(self.schedule) < 40:
            problems.append(f"only {len(self.schedule)} faults scheduled")
        return problems


class ChaosHot(ChaosRetry):
    """Not part of the benchmark (see ``config.EXTRA_WORKLOADS``)."""

    name = "chaos_hot"
    alpha = config.CHAOS_HOT_ALPHA
    storm_seed = None  # drawn from --seed


SCENARIOS = {cls.name: cls for cls in (DataHot, DataScan, ComputePlace, ChaosRetry, ChaosHot)}
