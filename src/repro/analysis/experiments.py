"""Experiment runners: one function per experiment id in DESIGN.md.

Every runner builds its own testbed, drives the workload, and returns both a
structured result object and (via :meth:`to_table`) a paper-style table.
A runner is a pure function of its arguments: the same seed gives the same
result.  ``tests/analysis/test_analysis_and_integration.py`` asserts the
paper's shape on the structured results, at the paper's parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.results import ResultTable, format_bytes, format_seconds
from repro.core.baseline import CentralizedController
from repro.core.client import JobOutcome
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.placement import (
    LearnedPlacement,
    LeastLoadedPlacement,
    NearestPlacement,
    PlacementStrategy,
    RandomPlacement,
    RoundRobinPlacement,
)
from repro.core.predictor import CompletionTimePredictor
from repro.core.spec import ComputeRequest, JobState
from repro.core.workflow import GenomicsWorkflow, WorkflowReport, decompose
from repro.genomics.runtime_model import TABLE1_ROWS, Table1Row, format_runtime

__all__ = [
    "Table1Result",
    "run_table1",
    "NamePlacementResult",
    "run_fig2_name_placement",
    "ServiceMappingResult",
    "run_fig3_service_mapping",
    "Fig5Decomposition",
    "run_fig5_workflow",
    "OverlayChurnResult",
    "run_overlay_churn",
    "PlacementComparison",
    "run_placement_comparison",
    "CachingAblation",
    "run_caching_ablation",
    "ConcurrentLoadResult",
    "run_concurrent_load",
    "BaselineComparison",
    "run_baseline_comparison",
]


# ---------------------------------------------------------------------------
# Table I — computation performance
# ---------------------------------------------------------------------------


@dataclass
class _Table1Measurement:
    """One measured row next to the paper's row."""

    paper: Table1Row
    measured_runtime_s: float
    measured_output_bytes: int
    cluster: str

    @property
    def runtime_relative_error(self) -> float:
        return abs(self.measured_runtime_s - self.paper.run_time_s) / self.paper.run_time_s

    @property
    def output_relative_error(self) -> float:
        return abs(self.measured_output_bytes - self.paper.output_size_bytes) / self.paper.output_size_bytes


@dataclass
class Table1Result:
    """The reproduced Table I."""

    measurements: list[_Table1Measurement] = field(default_factory=list)

    @property
    def max_runtime_error(self) -> float:
        return max(m.runtime_relative_error for m in self.measurements)

    def runtime_spread(self, srr_id: str) -> float:
        """Relative spread of measured runtimes across configurations of one sample."""
        runtimes = [m.measured_runtime_s for m in self.measurements if m.paper.srr_id == srr_id]
        if not runtimes:
            return 0.0
        return (max(runtimes) - min(runtimes)) / max(runtimes)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Table I — Computation Performance (paper vs reproduction)",
            columns=["SRR ID", "Ref. DB", "Genome", "Mem(GB)", "CPU",
                     "Paper run time", "Measured run time", "Paper output", "Measured output"],
        )
        for m in self.measurements:
            table.add_row(
                m.paper.srr_id, m.paper.reference, m.paper.genome_type,
                f"{m.paper.memory_gb:g}", m.paper.cpu,
                m.paper.run_time_text, format_runtime(m.measured_runtime_s),
                format_bytes(m.paper.output_size_bytes), format_bytes(m.measured_output_bytes),
            )
        table.add_note(
            "CPU/memory variation changes the measured run time by "
            f"{self.runtime_spread('SRR2931415') * 100:.2f}% (rice) and "
            f"{self.runtime_spread('SRR5139395') * 100:.2f}% (kidney) — "
            "no significant change, matching the paper's takeaway"
        )
        return table


def run_table1(seed: int = 0, rows: Sequence[Table1Row] = TABLE1_ROWS,
               poll_interval_s: float = 600.0) -> Table1Result:
    """Re-run every Table I configuration through the full LIDC stack."""
    result = Table1Result()
    for row in rows:
        testbed = LIDCTestbed.single_cluster(seed=seed, node_cpu=8, node_memory="32Gi")
        client = testbed.client(poll_interval_s=poll_interval_s)
        outcome = testbed.submit_and_wait(
            ComputeRequest(app="BLAST", cpu=row.cpu, memory_gb=row.memory_gb,
                           dataset=row.srr_id, reference=row.reference),
            client=client, fetch_result=False,
        )
        if not outcome.succeeded:
            raise RuntimeError(f"Table I run failed for {row}: {outcome.error}")
        cluster_name = outcome.submission.cluster or ""
        record = testbed.cluster(cluster_name).gateway.tracker.get(outcome.submission.job_id)
        result.measurements.append(
            _Table1Measurement(
                paper=row,
                measured_runtime_s=record.runtime() or 0.0,
                measured_output_bytes=record.result_size_bytes or 0,
                cluster=cluster_name,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 2 — transparent data and compute placement based on names
# ---------------------------------------------------------------------------


@dataclass
class NamePlacementResult:
    """Latencies of name-based data and compute resolution on one cluster."""

    data_manifest_latency_s: float
    data_payload_latency_s: float
    compute_ack_latency_s: float
    cached_manifest_latency_s: float
    dataset_bytes: int

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fig. 2 — Transparent data & compute placement based on names",
            columns=["operation", "latency"],
        )
        table.add_row("data manifest fetch (/ndn/k8s/data/<id>)", format_seconds(self.data_manifest_latency_s))
        table.add_row("data payload fetch (segmented)", format_seconds(self.data_payload_latency_s))
        table.add_row("compute request ack (/ndn/k8s/compute/...)", format_seconds(self.compute_ack_latency_s))
        table.add_row("repeat manifest fetch (content-store hit)", format_seconds(self.cached_manifest_latency_s))
        table.add_note("all operations are addressed purely by name; no cluster locations configured")
        return table


def run_fig2_name_placement(seed: int = 0) -> NamePlacementResult:
    testbed = LIDCTestbed.single_cluster(seed=seed, load_synthetic_datasets=True)
    client = testbed.client()

    def scenario():
        start = testbed.env.now
        manifest, _ = yield from client.retrieve_dataset("SRR0000001", fetch_payload=False)
        manifest_latency = testbed.env.now - start

        start = testbed.env.now
        _, payload = yield from client.retrieve_dataset("SRR0000001", fetch_payload=True)
        payload_latency = testbed.env.now - start

        start = testbed.env.now
        submission = yield from client.submit_interest(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "5"})
        )
        ack_latency = testbed.env.now - start

        start = testbed.env.now
        yield from client.retrieve_dataset("SRR0000001", fetch_payload=False)
        cached_latency = testbed.env.now - start
        return NamePlacementResult(
            data_manifest_latency_s=manifest_latency,
            data_payload_latency_s=payload_latency,
            compute_ack_latency_s=ack_latency,
            cached_manifest_latency_s=cached_latency,
            dataset_bytes=manifest.get("size_bytes", 0),
        )

    return testbed.run_process(scenario())


# ---------------------------------------------------------------------------
# Figs. 3 & 4 — mapping LIDC onto Kubernetes components
# ---------------------------------------------------------------------------


@dataclass
class ServiceMappingResult:
    """Observed Kubernetes objects and the per-hop overhead of the mapping."""

    node_port: int
    gateway_dns: str
    datalake_dns: str
    datalake_cluster_ip: str
    gateway_endpoints: int
    datalake_endpoints: int
    manifest_via_gateway_latency_s: float
    system_pods_running: int

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Figs. 3 & 4 — NDN-to-Kubernetes mapping",
            columns=["kubernetes object", "value"],
        )
        table.add_row("gateway NFD NodePort", self.node_port)
        table.add_row("gateway service DNS", self.gateway_dns)
        table.add_row("data-lake NFD service DNS", self.datalake_dns)
        table.add_row("data-lake ClusterIP", self.datalake_cluster_ip)
        table.add_row("gateway endpoints (pods)", self.gateway_endpoints)
        table.add_row("data-lake endpoints (pods)", self.datalake_endpoints)
        table.add_row("system pods running", self.system_pods_running)
        table.add_row("manifest fetch via gateway NFD", format_seconds(self.manifest_via_gateway_latency_s))
        return table


def run_fig3_service_mapping(seed: int = 0) -> ServiceMappingResult:
    testbed = LIDCTestbed.single_cluster(seed=seed, load_synthetic_datasets=True)
    testbed.run(until=testbed.env.now + 10)  # let deployments come up
    cluster = next(iter(testbed.clusters.values()))
    client = testbed.client()

    def fetch():
        start = testbed.env.now
        yield from client.retrieve_dataset("synthetic-reference", fetch_payload=False)
        return testbed.env.now - start

    latency = testbed.run_process(fetch())
    gateway_service = cluster.nodeport_service
    datalake_service = cluster.datalake_service
    dns_record = cluster.cluster.dns.resolve(datalake_service.dns_name)
    running = len(cluster.cluster.running_pods())
    return ServiceMappingResult(
        node_port=gateway_service.node_port or 0,
        gateway_dns=gateway_service.dns_name,
        datalake_dns=datalake_service.dns_name,
        datalake_cluster_ip=dns_record.cluster_ip,
        gateway_endpoints=len(gateway_service.endpoints.addresses),
        datalake_endpoints=len(datalake_service.endpoints.addresses),
        manifest_via_gateway_latency_s=latency,
        system_pods_running=running,
    )


# ---------------------------------------------------------------------------
# Fig. 5 — workflow protocol decomposition
# ---------------------------------------------------------------------------


@dataclass
class Fig5Decomposition:
    """Per-step latencies of the five-step protocol."""

    report: WorkflowReport

    @property
    def end_to_end_s(self) -> float:
        return self.report.end_to_end_s

    def step_seconds(self, step: str) -> float:
        timing = self.report.step(step)
        return timing.duration_s if timing else 0.0

    def compute_fraction(self) -> float:
        timing = self.report.step("computation_and_status")
        return timing.fraction if timing else 0.0

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fig. 5 — LIDC workflow protocol step decomposition",
            columns=["protocol step", "duration", "fraction of end-to-end"],
        )
        for timing in self.report.steps:
            table.add_row(timing.step, format_seconds(timing.duration_s), f"{timing.fraction * 100:.3f}%")
        table.add_row("end-to-end", format_seconds(self.end_to_end_s), "100%")
        table.add_note("computation dominates; naming/forwarding/status overhead is negligible")
        return table


def run_fig5_workflow(seed: int = 0, srr_id: str = "SRR2931415", cpu: int = 2,
                      memory_gb: float = 4, poll_interval_s: float = 600.0) -> Fig5Decomposition:
    testbed = LIDCTestbed.single_cluster(seed=seed)
    client = testbed.client(poll_interval_s=poll_interval_s)
    workflow = GenomicsWorkflow(client, poll_interval_s=poll_interval_s)
    report = testbed.run_process(workflow.blast(srr_id, cpu=cpu, memory_gb=memory_gb))
    return Fig5Decomposition(report=report)


# ---------------------------------------------------------------------------
# Fig. 1 — multi-cluster overlay under churn
# ---------------------------------------------------------------------------


@dataclass
class OverlayChurnResult:
    """Placement behaviour of the overlay while clusters join and leave."""

    cluster_count: int
    outcomes_before: list[JobOutcome] = field(default_factory=list)
    outcomes_after_leave: list[JobOutcome] = field(default_factory=list)
    outcomes_after_join: list[JobOutcome] = field(default_factory=list)
    removed_cluster: str = ""
    added_cluster: str = ""

    @staticmethod
    def _success_rate(outcomes: list[JobOutcome]) -> float:
        if not outcomes:
            return 0.0
        return sum(1 for o in outcomes if o.succeeded) / len(outcomes)

    @staticmethod
    def _clusters(outcomes: list[JobOutcome]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in outcomes:
            if outcome.submission.cluster:
                counts[outcome.submission.cluster] = counts.get(outcome.submission.cluster, 0) + 1
        return counts

    @property
    def success_before(self) -> float:
        return self._success_rate(self.outcomes_before)

    @property
    def success_after_leave(self) -> float:
        return self._success_rate(self.outcomes_after_leave)

    @property
    def success_after_join(self) -> float:
        return self._success_rate(self.outcomes_after_join)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fig. 1 — Multi-cluster overlay: placement under churn",
            columns=["phase", "requests", "success rate", "clusters used"],
        )
        phases = [
            (f"initial overlay ({self.cluster_count} clusters)", self.outcomes_before),
            (f"after {self.removed_cluster} leaves", self.outcomes_after_leave),
            (f"after {self.added_cluster} joins", self.outcomes_after_join),
        ]
        for label, outcomes in phases:
            table.add_row(
                label, len(outcomes), f"{self._success_rate(outcomes) * 100:.0f}%",
                ", ".join(f"{k}:{v}" for k, v in sorted(self._clusters(outcomes).items())) or "-",
            )
        table.add_note("no client reconfiguration at any point: requests keep using the same names")
        return table


def run_overlay_churn(seed: int = 0, cluster_count: int = 3, requests_per_phase: int = 6,
                      job_duration_s: float = 60.0) -> OverlayChurnResult:
    testbed = LIDCTestbed.multi_cluster(cluster_count, seed=seed, node_count=1,
                                        node_cpu=4, node_memory="8Gi")
    testbed.overlay.use_load_balancing()
    client = testbed.client(poll_interval_s=10.0)
    result = OverlayChurnResult(cluster_count=cluster_count)

    def request() -> ComputeRequest:
        return ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                              params={"duration": f"{job_duration_s:g}"})

    def run_phase(count: int) -> list[JobOutcome]:
        def phase():
            outcomes = []
            for _ in range(count):
                outcome = yield from client.run_workflow(
                    request(), poll_interval_s=10.0, fetch_result=False
                )
                outcomes.append(outcome)
            return outcomes
        return testbed.run_process(phase())

    result.outcomes_before = run_phase(requests_per_phase)

    # Graceful leave of the first cluster.
    result.removed_cluster = sorted(testbed.clusters)[0]
    testbed.overlay.remove_cluster(result.removed_cluster)
    result.outcomes_after_leave = run_phase(requests_per_phase)

    # A brand-new cluster joins; nothing on the client changes.
    new_cluster = testbed.add_cluster(name="cluster-new")
    result.added_cluster = new_cluster.name
    testbed.overlay.use_load_balancing()
    result.outcomes_after_join = run_phase(requests_per_phase)
    return result


# ---------------------------------------------------------------------------
# Placement strategy ablation (paper §VII "intelligence in the network")
# ---------------------------------------------------------------------------


@dataclass
class _StrategyOutcome:
    """Aggregate metrics for one placement strategy."""

    strategy: str
    mean_turnaround_s: float
    makespan_s: float
    placements: dict[str, int]
    failures: int


@dataclass
class PlacementComparison:
    """Comparison of placement strategies over the same workload."""

    outcomes: list[_StrategyOutcome] = field(default_factory=list)

    def best_strategy(self) -> str:
        return min(self.outcomes, key=lambda o: o.mean_turnaround_s).strategy

    def outcome_for(self, strategy: str) -> _StrategyOutcome:
        for outcome in self.outcomes:
            if outcome.strategy == strategy:
                return outcome
        raise KeyError(strategy)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Placement strategy ablation (future-work 'intelligence in the network')",
            columns=["strategy", "mean turnaround", "makespan", "failures", "placement spread"],
        )
        for outcome in self.outcomes:
            spread = ", ".join(f"{k}:{v}" for k, v in sorted(outcome.placements.items()))
            table.add_row(outcome.strategy, format_seconds(outcome.mean_turnaround_s),
                          format_seconds(outcome.makespan_s), outcome.failures, spread)
        table.add_note(f"best strategy on this workload: {self.best_strategy()}")
        return table


def _heterogeneous_testbed(seed: int) -> LIDCTestbed:
    """Three clusters with different sizes and distances from the client edge."""
    testbed = LIDCTestbed(None)
    testbed.config.seed = seed
    testbed.add_cluster(name="small-near", node_count=1, node_cpu=4, node_memory="8Gi",
                        latency_s=0.005)
    testbed.add_cluster(name="medium-mid", node_count=1, node_cpu=8, node_memory="16Gi",
                        latency_s=0.03)
    testbed.add_cluster(name="large-far", node_count=1, node_cpu=16, node_memory="64Gi",
                        latency_s=0.08)
    return testbed


def run_placement_comparison(seed: int = 0, jobs: int = 16,
                             job_duration_s: float = 300.0) -> PlacementComparison:
    """Compare explicit placement strategies through the centralized controller."""
    comparison = PlacementComparison()
    latencies = {"small-near": 0.005, "medium-mid": 0.03, "large-far": 0.08}

    def build_strategies() -> list[tuple[str, PlacementStrategy, Optional[CompletionTimePredictor]]]:
        predictor = CompletionTimePredictor(min_examples=3)
        return [
            ("random", RandomPlacement(), None),
            ("round-robin", RoundRobinPlacement(), None),
            ("nearest", NearestPlacement(latencies), None),
            ("least-loaded", LeastLoadedPlacement(), None),
            ("learned", LearnedPlacement(predictor), predictor),
        ]

    for name, strategy, predictor in build_strategies():
        testbed = _heterogeneous_testbed(seed)
        controller = CentralizedController(
            testbed.env, clusters=list(testbed.clusters.values()), strategy=strategy
        )
        if predictor is not None:
            # Warm the predictor with a few completed jobs before the measured batch.
            for index in range(4):
                warm = controller.submit(
                    ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                                   params={"duration": f"{job_duration_s / 2:g}"})
                )
                if warm.record is not None and warm.decision is not None:
                    cluster = testbed.cluster(warm.decision.cluster_name)
                    k8s_job = cluster.cluster.job(warm.record.k8s_job_name)
                    testbed.run(until=k8s_job.completion)
                    record = cluster.gateway.tracker.get(warm.record.job_id)
                    if record.runtime() is not None:
                        predictor.observe(record.request, record.runtime())
        start = testbed.env.now
        submissions = []
        for index in range(jobs):
            submission = controller.submit(
                ComputeRequest(app="SLEEP", cpu=2, memory_gb=4,
                               params={"duration": f"{job_duration_s:g}", "idx": str(index)})
            )
            submissions.append(submission)
            testbed.run(until=testbed.env.now + 5.0)  # small inter-arrival gap
        # Wait for every admitted job to finish.
        pending = [s for s in submissions if s.record is not None]
        for submission in pending:
            cluster = testbed.cluster(submission.decision.cluster_name)
            k8s_job = cluster.cluster.job(submission.record.k8s_job_name)
            if not k8s_job.is_terminal:
                testbed.run(until=k8s_job.completion)
        makespan = testbed.env.now - start
        turnarounds = []
        failures = 0
        # Placements of the measured batch only: the controller's own counts
        # include the learned strategy's warm-up jobs.
        placements: dict[str, int] = {}
        for submission in submissions:
            if submission.record is None:
                failures += 1
                continue
            cluster_name = submission.decision.cluster_name
            placements[cluster_name] = placements.get(cluster_name, 0) + 1
            cluster = testbed.cluster(cluster_name)
            record = cluster.gateway.tracker.get(submission.record.job_id)
            if record.state == JobState.COMPLETED and record.turnaround() is not None:
                turnarounds.append(record.turnaround())
            else:
                failures += 1
        comparison.outcomes.append(
            _StrategyOutcome(
                strategy=name,
                mean_turnaround_s=sum(turnarounds) / len(turnarounds) if turnarounds else float("inf"),
                makespan_s=makespan,
                placements=placements,
                failures=failures,
            )
        )
    return comparison


# ---------------------------------------------------------------------------
# Result-caching ablation (paper §VII)
# ---------------------------------------------------------------------------


@dataclass
class CachingAblation:
    """Repeated identical requests with and without result caching."""

    request_count: int
    first_latency_s: float
    cold_latencies_s: list[float] = field(default_factory=list)
    warm_latencies_s: list[float] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def mean_cold_s(self) -> float:
        return sum(self.cold_latencies_s) / len(self.cold_latencies_s) if self.cold_latencies_s else 0.0

    @property
    def mean_warm_s(self) -> float:
        return sum(self.warm_latencies_s) / len(self.warm_latencies_s) if self.warm_latencies_s else 0.0

    @property
    def speedup(self) -> float:
        return self.mean_cold_s / self.mean_warm_s if self.mean_warm_s > 0 else float("inf")

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Result caching ablation (repeated identical requests)",
            columns=["configuration", "mean request latency", "cache hits"],
        )
        table.add_row("caching disabled (every request recomputes)", format_seconds(self.mean_cold_s), 0)
        table.add_row("caching enabled (first request computes)", format_seconds(self.first_latency_s), "-")
        table.add_row("caching enabled (subsequent requests)", format_seconds(self.mean_warm_s), self.cache_hits)
        table.add_note(f"caching speeds repeated identical requests up by {self.speedup:,.0f}x")
        return table


def run_caching_ablation(seed: int = 0, repeats: int = 5,
                         job_duration_s: float = 900.0) -> CachingAblation:
    request = ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                             params={"duration": f"{job_duration_s:g}"})

    def run_series(enable_cache: bool) -> tuple[list[float], int, float]:
        testbed = LIDCTestbed.single_cluster(seed=seed, enable_result_cache=enable_cache)
        client = testbed.client(poll_interval_s=10.0)
        latencies = []
        # Sequential handle sessions: each repeat must observe the previous
        # one's published result for the cache to answer it.
        for _ in range(repeats):
            start = testbed.env.now
            handle = client.submit(request, unique=False, fetch_result=False,
                                   poll_interval_s=10.0)
            outcome = testbed.run(until=handle.done)
            if not outcome.succeeded:
                raise RuntimeError(f"caching-ablation job failed: {outcome.error}")
            latencies.append(testbed.env.now - start)
        cluster = next(iter(testbed.clusters.values()))
        edge_cs_hits = testbed.overlay.routers[CLIENT_EDGE].cs.hits
        hits = int(cluster.gateway.cache.hits) + int(edge_cs_hits)
        first = latencies[0]
        return latencies, hits, first

    cold_latencies, _, _ = run_series(enable_cache=False)
    warm_latencies, hits, first = run_series(enable_cache=True)
    return CachingAblation(
        request_count=repeats,
        first_latency_s=first,
        cold_latencies_s=cold_latencies,
        warm_latencies_s=warm_latencies[1:],
        cache_hits=hits,
    )


# ---------------------------------------------------------------------------
# Concurrent load through one client (session-based JobHandle API)
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentLoadResult:
    """Makespan of N jobs driven concurrently vs sequentially by one client."""

    jobs: int
    job_duration_s: float
    concurrent_makespan_s: float
    sequential_makespan_s: float
    concurrent_completed: int
    sequential_completed: int
    max_in_flight: int
    pending_after: int
    clusters_used: dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.concurrent_makespan_s <= 0:
            return float("inf")
        return self.sequential_makespan_s / self.concurrent_makespan_s

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Concurrent job sessions — one client, N in-flight JobHandles",
            columns=["submission mode", "jobs completed", "makespan", "max in flight"],
        )
        table.add_row("sequential (submit, wait, repeat)", self.sequential_completed,
                      format_seconds(self.sequential_makespan_s), 1)
        table.add_row("concurrent (submit_many)", self.concurrent_completed,
                      format_seconds(self.concurrent_makespan_s), self.max_in_flight)
        table.add_note(
            f"concurrent sessions finish {self.speedup:,.1f}x sooner; "
            f"{self.pending_after} pending Interests leaked after completion"
        )
        return table


def run_concurrent_load(seed: int = 0, jobs: int = 20, job_duration_s: float = 120.0,
                        poll_interval_s: float = 10.0,
                        cluster_count: int = 1) -> ConcurrentLoadResult:
    """Submit the same batch of jobs sequentially and concurrently.

    The concurrent half drives every job as an in-flight
    :class:`~repro.core.client.JobHandle` on a single client (one Consumer,
    one access router), which is the workload the old blocking poll-loop
    API could not express.
    """
    def build() -> LIDCTestbed:
        if cluster_count <= 1:
            return LIDCTestbed.single_cluster(
                seed=seed, node_count=4, node_cpu=8, node_memory="32Gi")
        return LIDCTestbed.multi_cluster(
            cluster_count, seed=seed, node_count=2, node_cpu=8, node_memory="32Gi")

    def request(index: int) -> ComputeRequest:
        return ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                              params={"duration": f"{job_duration_s:g}", "idx": str(index)})

    # -- sequential baseline ---------------------------------------------------
    sequential_bed = build()
    sequential_client = sequential_bed.client(poll_interval_s=poll_interval_s)
    start = sequential_bed.env.now
    sequential_outcomes = [
        sequential_bed.submit_and_wait(request(index), client=sequential_client,
                                       fetch_result=False)
        for index in range(jobs)
    ]
    sequential_makespan = sequential_bed.env.now - start

    # -- concurrent sessions ---------------------------------------------------
    concurrent_bed = build()
    concurrent_client = concurrent_bed.client(poll_interval_s=poll_interval_s)
    start = concurrent_bed.env.now
    handles = concurrent_client.submit_many(
        [request(index) for index in range(jobs)], fetch_result=False)
    concurrent_bed.run(until=concurrent_client.wait_all(handles))
    concurrent_makespan = concurrent_bed.env.now - start

    clusters_used: dict[str, int] = {}
    for handle in handles:
        if handle.cluster:
            clusters_used[handle.cluster] = clusters_used.get(handle.cluster, 0) + 1
    return ConcurrentLoadResult(
        jobs=jobs,
        job_duration_s=job_duration_s,
        concurrent_makespan_s=concurrent_makespan,
        sequential_makespan_s=sequential_makespan,
        concurrent_completed=sum(1 for h in handles if h.succeeded),
        sequential_completed=sum(1 for o in sequential_outcomes if o.succeeded),
        max_in_flight=concurrent_client.max_in_flight,
        pending_after=concurrent_client.consumer.pending_count(),
        clusters_used=clusters_used,
    )


# ---------------------------------------------------------------------------
# Decentralized LIDC vs centralized controller baseline
# ---------------------------------------------------------------------------


@dataclass
class BaselineComparison:
    """Availability of LIDC vs the centralized baseline under failures."""

    lidc_success_normal: float
    lidc_success_after_cluster_failure: float
    central_success_normal: float
    central_success_after_controller_failure: float
    lidc_placements: dict[str, int] = field(default_factory=dict)
    central_placements: dict[str, int] = field(default_factory=dict)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Decentralized LIDC overlay vs centralized controller baseline",
            columns=["control plane", "normal operation", "after failure injection", "failure injected"],
        )
        table.add_row(
            "LIDC (name-based, decentralized)",
            f"{self.lidc_success_normal * 100:.0f}%",
            f"{self.lidc_success_after_cluster_failure * 100:.0f}%",
            "one whole cluster fails",
        )
        table.add_row(
            "Centralized federation controller",
            f"{self.central_success_normal * 100:.0f}%",
            f"{self.central_success_after_controller_failure * 100:.0f}%",
            "the controller fails",
        )
        table.add_note("LIDC keeps placing jobs on surviving clusters; the centralized design stalls entirely")
        return table


def run_baseline_comparison(seed: int = 0, cluster_count: int = 3,
                            requests_per_phase: int = 6,
                            job_duration_s: float = 60.0) -> BaselineComparison:
    request_params = {"duration": f"{job_duration_s:g}"}

    # --- LIDC overlay ---------------------------------------------------------
    lidc = LIDCTestbed.multi_cluster(cluster_count, seed=seed, node_count=1,
                                     node_cpu=4, node_memory="8Gi")
    lidc.overlay.use_load_balancing()
    client = lidc.client(poll_interval_s=10.0)

    def lidc_phase(count: int) -> list[JobOutcome]:
        def phase():
            outcomes = []
            for _ in range(count):
                outcome = yield from client.run_workflow(
                    ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params=dict(request_params)),
                    poll_interval_s=10.0, fetch_result=False,
                )
                outcomes.append(outcome)
            return outcomes
        return lidc.run_process(phase())

    normal = lidc_phase(requests_per_phase)
    victim = sorted(lidc.clusters)[0]
    lidc.overlay.fail_cluster(victim)
    degraded = lidc_phase(requests_per_phase)
    lidc_placements: dict[str, int] = {}
    for outcome in normal + degraded:
        if outcome.submission.cluster:
            lidc_placements[outcome.submission.cluster] = (
                lidc_placements.get(outcome.submission.cluster, 0) + 1
            )

    # --- centralized baseline --------------------------------------------------
    central_bed = LIDCTestbed.multi_cluster(cluster_count, seed=seed + 1, node_count=1,
                                            node_cpu=4, node_memory="8Gi")
    controller = CentralizedController(
        central_bed.env, clusters=list(central_bed.clusters.values()),
        strategy=LeastLoadedPlacement(),
    )

    def central_phase(count: int) -> list[bool]:
        results = []
        for _ in range(count):
            submission = controller.try_submit(
                ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params=dict(request_params))
            )
            if submission.record is None:
                results.append(False)
                continue
            cluster = central_bed.cluster(submission.decision.cluster_name)
            k8s_job = cluster.cluster.job(submission.record.k8s_job_name)
            central_bed.run(until=k8s_job.completion)
            record = cluster.gateway.tracker.get(submission.record.job_id)
            results.append(record.state == JobState.COMPLETED)
        return results

    central_normal = central_phase(requests_per_phase)
    controller.fail()
    central_failed = central_phase(requests_per_phase)

    def rate(values: "list[bool] | list[JobOutcome]") -> float:
        if not values:
            return 0.0
        if isinstance(values[0], bool):
            return sum(1 for v in values if v) / len(values)
        return sum(1 for v in values if v.succeeded) / len(values)

    return BaselineComparison(
        lidc_success_normal=rate(normal),
        lidc_success_after_cluster_failure=rate(degraded),
        central_success_normal=rate(central_normal),
        central_success_after_controller_failure=rate(central_failed),
        lidc_placements=lidc_placements,
        central_placements=controller.placement_counts(),
    )
