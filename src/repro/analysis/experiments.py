"""The paper's experiments as one run table.

:data:`EXPERIMENTS` has one row per paper table, figure or ablation: its
runner, its *paper* level and its *shrunk* levels.  A level is the runner's
keyword arguments, every one of them; ``examples/paper_figures.py`` prints
each runner at its paper level, and
``tests/analysis/test_analysis_and_integration.py`` checks each at every
level.  A runner builds its own testbed, drives the full stack in simulated
time and returns the :class:`~repro.analysis.results.ResultTable` it
renders; the table's ``measures`` hold the figures the checks read.  A
runner is a pure function of its level: the same seed gives the same table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.results import ResultTable, format_bytes, format_seconds
from repro.core.baseline import CentralizedController
from repro.core.client import JobOutcome, LIDCClient
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.spec import ComputeRequest, JobState
from repro.core.workflow import GenomicsWorkflow, WorkflowReport
from repro.genomics.runtime_model import TABLE1_ROWS, Table1Row, format_runtime

__all__ = ["EXPERIMENTS"]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


#: The two SRA samples of Table I: a rice genome and a human kidney.
_RICE, _KIDNEY = "SRR2931415", "SRR5139395"


def _sleep(duration_s: float, **params: str) -> ComputeRequest:
    return ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                          params={"duration": f"{duration_s:g}", **params})


def _success_rate(succeeded: Iterable[bool]) -> float:
    flags = list(succeeded)
    return sum(flags) / len(flags) if flags else 0.0


def _placements(clusters: Iterable[Optional[str]]) -> Counter:
    """Jobs per cluster, over the jobs that were placed."""
    return Counter(cluster for cluster in clusters if cluster)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _star(cluster_count: int, seed: int) -> LIDCTestbed:
    """``cluster_count`` clusters of one 4-CPU, 8Gi node each."""
    return LIDCTestbed.multi_cluster(cluster_count, seed=seed, node_count=1,
                                     node_cpu=4, node_memory="8Gi")


def _balanced_star(cluster_count: int, seed: int) -> tuple[LIDCTestbed, LIDCClient]:
    """A :func:`_star` that load-balances, and a client polling every 10 s."""
    testbed = _star(cluster_count, seed)
    testbed.overlay.use_load_balancing()
    return testbed, testbed.client(poll_interval_s=10.0)


def _sleep_jobs(testbed: LIDCTestbed, client: LIDCClient, count: int,
                job_duration_s: float) -> list[JobOutcome]:
    """Run ``count`` SLEEP jobs one after another and return their outcomes."""
    def jobs():
        outcomes = []
        for _ in range(count):
            outcomes.append((yield client.submit(_sleep(job_duration_s), fetch_result=False).done))
        return outcomes
    return testbed.run_process(jobs())


def _spread(runtimes: Sequence[float]) -> float:
    """Relative spread of one sample's runtimes across configurations."""
    return (max(runtimes) - min(runtimes)) / max(runtimes) if runtimes else 0.0


# ---------------------------------------------------------------------------
# Table I — computation performance
# ---------------------------------------------------------------------------


def _run_table1(*, seed: int, rows: Sequence[Table1Row]) -> ResultTable:
    """Re-run Table I configurations through the full LIDC stack."""
    table = ResultTable(
        title="Table I — Computation Performance (paper vs reproduction)",
        columns=["SRR ID", "Ref. DB", "Genome", "Mem(GB)", "CPU",
                 "Paper run time", "Measured run time", "Paper output", "Measured output"],
    )
    runtimes: dict[str, list[float]] = {}
    runtime_errors, output_errors = [], []
    for row in rows:
        testbed = LIDCTestbed.single_cluster(seed=seed, node_cpu=8, node_memory="32Gi")
        client = testbed.client(poll_interval_s=600.0)
        outcome = testbed.submit_and_wait(
            ComputeRequest(app="BLAST", cpu=row.cpu, memory_gb=row.memory_gb,
                           dataset=row.srr_id, reference=row.reference),
            client=client, fetch_result=False,
        )
        if not outcome.succeeded:
            raise RuntimeError(f"Table I run failed for {row}: {outcome.error}")
        cluster = testbed.cluster(outcome.submission.cluster or "")
        record = cluster.gateway.tracker.get(outcome.submission.job_id)
        runtime, output = record.runtime() or 0.0, record.result_size_bytes or 0
        runtimes.setdefault(row.srr_id, []).append(runtime)
        runtime_errors.append(abs(runtime - row.run_time_s) / row.run_time_s)
        output_errors.append(abs(output - row.output_size_bytes) / row.output_size_bytes)
        table.add_row(
            row.srr_id, row.reference, row.genome_type, f"{row.memory_gb:g}", row.cpu,
            row.run_time_text, format_runtime(runtime),
            format_bytes(row.output_size_bytes), format_bytes(output),
        )
    rice, kidney = runtimes.get(_RICE, []), runtimes.get(_KIDNEY, [])
    table.measures.update(
        max_runtime_error=max(runtime_errors), max_output_error=max(output_errors),
        runtime_spread_rice=_spread(rice), runtime_spread_kidney=_spread(kidney),
    )
    if rice and kidney:
        table.measures["kidney_over_rice"] = min(kidney) / max(rice)
    table.add_note(
        "CPU/memory variation changes the measured run time by "
        f"{table.measures['runtime_spread_rice'] * 100:.2f}% (rice) and "
        f"{table.measures['runtime_spread_kidney'] * 100:.2f}% (kidney) — "
        "no significant change, matching the paper's takeaway"
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 2 — transparent data and compute placement based on names
# ---------------------------------------------------------------------------


def _run_fig2_name_placement(*, seed: int) -> ResultTable:
    testbed = LIDCTestbed.single_cluster(seed=seed, load_synthetic_datasets=True)
    client = testbed.client()
    table = ResultTable(
        title="Fig. 2 — Transparent data & compute placement based on names",
        columns=["operation", "latency"],
    )
    # (row label, measure, the operation timed), in the order they run.
    steps = (
        ("data manifest fetch (/ndn/k8s/data/<id>)", "data_manifest_latency_s",
         lambda: client.retrieve_dataset("SRR0000001", fetch_payload=False)),
        ("data payload fetch (segmented)", "data_payload_latency_s",
         lambda: client.retrieve_dataset("SRR0000001", fetch_payload=True)),
        ("compute request ack (/ndn/k8s/compute/...)", "compute_ack_latency_s",
         lambda: client.submit_interest(_sleep(5))),
        ("repeat manifest fetch (content-store hit)", "cached_manifest_latency_s",
         lambda: client.retrieve_dataset("SRR0000001", fetch_payload=False)),
    )

    def scenario():
        for label, measure, operation in steps:
            start = testbed.env.now
            yield from operation()
            table.measures[measure] = testbed.env.now - start
            table.add_row(label, format_seconds(table.measures[measure]))

    testbed.run_process(scenario())
    table.add_note("all operations are addressed purely by name; no cluster locations configured")
    return table


# ---------------------------------------------------------------------------
# Figs. 3 & 4 — mapping LIDC onto Kubernetes components
# ---------------------------------------------------------------------------


def _run_fig3_service_mapping(*, seed: int) -> ResultTable:
    testbed = LIDCTestbed.single_cluster(seed=seed, load_synthetic_datasets=True)
    testbed.run(until=testbed.env.now + 10)  # let deployments come up
    cluster = next(iter(testbed.clusters.values()))
    client = testbed.client()

    def fetch():
        start = testbed.env.now
        yield from client.retrieve_dataset("synthetic-reference", fetch_payload=False)
        return testbed.env.now - start

    latency = testbed.run_process(fetch())
    gateway, datalake = cluster.nodeport_service, cluster.datalake_service
    table = ResultTable(title="Figs. 3 & 4 — NDN-to-Kubernetes mapping",
                        columns=["kubernetes object", "value"])
    for label, measure, value in (
        ("gateway NFD NodePort", "node_port", gateway.node_port or 0),
        ("gateway service DNS", "gateway_dns", gateway.dns_name),
        ("data-lake NFD service DNS", "datalake_dns", datalake.dns_name),
        ("data-lake ClusterIP", "datalake_cluster_ip",
         cluster.cluster.dns.resolve(datalake.dns_name).cluster_ip),
        ("gateway endpoints (pods)", "gateway_endpoints", len(gateway.endpoints.addresses)),
        ("data-lake endpoints (pods)", "datalake_endpoints", len(datalake.endpoints.addresses)),
        ("system pods running", "system_pods_running", len(cluster.cluster.running_pods())),
    ):
        table.measures[measure] = value
        table.add_row(label, value)
    table.measures["manifest_via_gateway_latency_s"] = latency
    table.add_row("manifest fetch via gateway NFD", format_seconds(latency))
    return table


# ---------------------------------------------------------------------------
# Fig. 5 — workflow protocol decomposition
# ---------------------------------------------------------------------------


def _run_fig5_workflow(*, seed: int, srr_id: str, poll_interval_s: float) -> ResultTable:
    testbed = LIDCTestbed.single_cluster(seed=seed)
    client = testbed.client(poll_interval_s=poll_interval_s)
    report: WorkflowReport = testbed.run_process(GenomicsWorkflow(client).blast(srr_id))
    table = ResultTable(
        title="Fig. 5 — LIDC workflow protocol step decomposition",
        columns=["protocol step", "duration", "fraction of end-to-end"],
    )
    for timing in report.steps:
        table.add_row(timing.step, format_seconds(timing.duration_s), f"{timing.fraction * 100:.3f}%")
    table.add_row("end-to-end", format_seconds(report.end_to_end_s), "100%")
    table.add_note("computation dominates; naming/forwarding/status overhead is negligible")
    table.measures.update(
        succeeded=report.succeeded,
        end_to_end_s=report.end_to_end_s,
        compute_fraction=report.step("computation_and_status").fraction,
        submit_and_ack_s=report.step("submit_and_ack").duration_s,
        result_retrieval_s=report.step("result_retrieval").duration_s,
    )
    return table


# ---------------------------------------------------------------------------
# Fig. 1 — multi-cluster overlay under churn
# ---------------------------------------------------------------------------


def _run_overlay_churn(*, seed: int, cluster_count: int, requests_per_phase: int,
                       job_duration_s: float) -> ResultTable:
    testbed, client = _balanced_star(cluster_count, seed)
    table = ResultTable(
        title="Fig. 1 — Multi-cluster overlay: placement under churn",
        columns=["phase", "requests", "success rate", "clusters used"],
    )

    def phase(label: str) -> tuple[float, Counter]:
        outcomes = _sleep_jobs(testbed, client, requests_per_phase, job_duration_s)
        success = _success_rate(outcome.succeeded for outcome in outcomes)
        placements = _placements(outcome.submission.cluster for outcome in outcomes)
        table.add_row(label, len(outcomes), f"{success * 100:.0f}%",
                      ", ".join(f"{k}:{v}" for k, v in sorted(placements.items())) or "-")
        return success, placements

    success_before, _ = phase(f"initial overlay ({cluster_count} clusters)")
    # Graceful leave of the first cluster.
    removed = sorted(testbed.clusters)[0]
    testbed.overlay.remove_cluster(removed)
    success_after_leave, after_leave = phase(f"after {removed} leaves")
    # A brand-new cluster joins; nothing on the client changes.
    added = testbed.add_cluster(name="cluster-new").name
    testbed.overlay.use_load_balancing()
    success_after_join, after_join = phase(f"after {added} joins")
    table.add_note("no client reconfiguration at any point: requests keep using the same names")
    table.measures.update(
        success_before=success_before,
        success_after_leave=success_after_leave,
        success_after_join=success_after_join,
        removed_cluster_jobs_after_leave=after_leave[removed] + after_join[removed],
        added_cluster_jobs=after_join[added],
    )
    return table


# ---------------------------------------------------------------------------
# Result-caching ablation (paper §VII)
# ---------------------------------------------------------------------------


def _run_caching_ablation(*, seed: int, repeats: int, job_duration_s: float) -> ResultTable:
    request = _sleep(job_duration_s)

    def run_series(enable_cache: bool) -> tuple[list[float], int]:
        testbed = LIDCTestbed.single_cluster(seed=seed, enable_result_cache=enable_cache)
        client = testbed.client(poll_interval_s=10.0)
        latencies = []
        # Sequential handle sessions: each repeat must observe the previous
        # one's published result for the cache to answer it.
        for _ in range(repeats):
            start = testbed.env.now
            handle = client.submit(request, unique=False, fetch_result=False)
            outcome = testbed.run(until=handle.done)
            if not outcome.succeeded:
                raise RuntimeError(f"caching-ablation job failed: {outcome.error}")
            latencies.append(testbed.env.now - start)
        cluster = next(iter(testbed.clusters.values()))
        edge_cs_hits = testbed.overlay.routers[CLIENT_EDGE].cs.hits
        return latencies, int(cluster.gateway.cache.hits) + int(edge_cs_hits)

    cold, _ = run_series(enable_cache=False)
    warm, hits = run_series(enable_cache=True)
    mean_cold, mean_warm = _mean(cold), _mean(warm[1:])
    speedup = mean_cold / mean_warm if mean_warm > 0 else float("inf")
    table = ResultTable(
        title="Result caching ablation (repeated identical requests)",
        columns=["configuration", "mean request latency", "cache hits"],
    )
    table.add_row("caching disabled (every request recomputes)", format_seconds(mean_cold), 0)
    table.add_row("caching enabled (first request computes)", format_seconds(warm[0]), "-")
    table.add_row("caching enabled (subsequent requests)", format_seconds(mean_warm), hits)
    table.add_note(f"caching speeds repeated identical requests up by {speedup:,.0f}x")
    table.measures.update(mean_cold_s=mean_cold, first_latency_s=warm[0],
                          mean_warm_s=mean_warm, speedup=speedup, cache_hits=hits)
    return table


# ---------------------------------------------------------------------------
# Concurrent load through one client (session-based JobHandle API)
# ---------------------------------------------------------------------------


def _run_concurrent_load(*, seed: int, jobs: int, job_duration_s: float,
                         poll_interval_s: float, cluster_count: int) -> ResultTable:
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

    def requests() -> list[ComputeRequest]:
        return [_sleep(job_duration_s, idx=str(index)) for index in range(jobs)]

    # -- sequential baseline ---------------------------------------------------
    sequential_bed = build()
    sequential_client = sequential_bed.client(poll_interval_s=poll_interval_s)
    start = sequential_bed.env.now
    sequential_outcomes = [
        sequential_bed.submit_and_wait(request, client=sequential_client, fetch_result=False)
        for request in requests()
    ]
    sequential_makespan = sequential_bed.env.now - start

    # -- concurrent sessions ---------------------------------------------------
    concurrent_bed = build()
    concurrent_client = concurrent_bed.client(poll_interval_s=poll_interval_s)
    start = concurrent_bed.env.now
    handles = concurrent_client.submit_many(requests(), fetch_result=False)
    concurrent_bed.run(until=concurrent_client.wait_all(handles))
    concurrent_makespan = concurrent_bed.env.now - start

    speedup = sequential_makespan / concurrent_makespan if concurrent_makespan > 0 else float("inf")
    table = ResultTable(
        title="Concurrent job sessions — one client, N in-flight JobHandles",
        columns=["submission mode", "jobs completed", "makespan", "max in flight"],
    )
    table.measures.update(
        sequential_completed=sum(outcome.succeeded for outcome in sequential_outcomes),
        concurrent_completed=sum(handle.outcome.succeeded for handle in handles),
        sequential_makespan_s=sequential_makespan,
        concurrent_makespan_s=concurrent_makespan,
        max_in_flight=concurrent_client.max_in_flight,
        speedup=speedup,
        pending_after=concurrent_client.consumer.pending_count(),
        clusters_used=len(_placements(handle.outcome.submission.cluster for handle in handles)),
    )
    table.add_row("sequential (submit, wait, repeat)", table.measures["sequential_completed"],
                  format_seconds(sequential_makespan), 1)
    table.add_row("concurrent (submit_many)", table.measures["concurrent_completed"],
                  format_seconds(concurrent_makespan), concurrent_client.max_in_flight)
    table.add_note(
        f"concurrent sessions finish {speedup:,.1f}x sooner; "
        f"{table.measures['pending_after']} pending Interests leaked after completion"
    )
    return table


# ---------------------------------------------------------------------------
# Decentralized LIDC vs centralized controller baseline
# ---------------------------------------------------------------------------


def _run_baseline_comparison(*, seed: int, cluster_count: int, requests_per_phase: int,
                             job_duration_s: float) -> ResultTable:
    # --- LIDC overlay ---------------------------------------------------------
    lidc, client = _balanced_star(cluster_count, seed)
    normal = _sleep_jobs(lidc, client, requests_per_phase, job_duration_s)
    lidc.overlay.fail_cluster(sorted(lidc.clusters)[0])
    degraded = _sleep_jobs(lidc, client, requests_per_phase, job_duration_s)

    # --- centralized baseline --------------------------------------------------
    central_bed = _star(cluster_count, seed + 1)
    controller = CentralizedController(central_bed.env,
                                       clusters=list(central_bed.clusters.values()))

    def central_phase() -> list[bool]:
        results = []
        for _ in range(requests_per_phase):
            submission = controller.try_submit(_sleep(job_duration_s))
            if submission.record is None:
                results.append(False)
                continue
            central_bed.run(until=submission.record.k8s_job.completion)
            results.append(submission.record.state == JobState.COMPLETED)
        return results

    central_normal = _success_rate(central_phase())
    controller.fail()
    central_failed = _success_rate(central_phase())

    lidc_normal = _success_rate(outcome.succeeded for outcome in normal)
    lidc_degraded = _success_rate(outcome.succeeded for outcome in degraded)
    table = ResultTable(
        title="Decentralized LIDC overlay vs centralized controller baseline",
        columns=["control plane", "normal operation", "after failure injection", "failure injected"],
    )
    table.add_row("LIDC (name-based, decentralized)", f"{lidc_normal * 100:.0f}%",
                  f"{lidc_degraded * 100:.0f}%", "one whole cluster fails")
    table.add_row("Centralized federation controller", f"{central_normal * 100:.0f}%",
                  f"{central_failed * 100:.0f}%", "the controller fails")
    table.add_note("LIDC keeps placing jobs on surviving clusters; the centralized design stalls entirely")
    table.measures.update(
        lidc_success_normal=lidc_normal,
        lidc_success_after_cluster_failure=lidc_degraded,
        central_success_normal=central_normal,
        central_success_after_controller_failure=central_failed,
        lidc_clusters_used=len(_placements(
            outcome.submission.cluster for outcome in normal + degraded)),
    )
    return table


# ---------------------------------------------------------------------------
# The run table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Experiment:
    """One paper table, figure or ablation, and the levels it runs at."""

    name: str
    run: Callable[..., ResultTable]
    #: The level ``examples/paper_figures.py`` prints.
    paper: dict
    #: The other levels tier-1 checks: smaller, larger, or another seed.
    shrunk: tuple


#: Every experiment of the paper, in the order ``paper_figures.py`` prints them.
EXPERIMENTS: tuple[_Experiment, ...] = (
    _Experiment(
        "fig1_overlay_churn", _run_overlay_churn,
        paper=dict(seed=0, cluster_count=3, requests_per_phase=6, job_duration_s=60.0),
        shrunk=(dict(seed=1, cluster_count=3, requests_per_phase=4, job_duration_s=30.0),
                dict(seed=1, cluster_count=8, requests_per_phase=8, job_duration_s=30.0)),
    ),
    _Experiment(
        "fig2_name_placement", _run_fig2_name_placement,
        paper=dict(seed=0),
        shrunk=(dict(seed=1), dict(seed=2), dict(seed=3)),
    ),
    _Experiment(
        "fig3_service_mapping", _run_fig3_service_mapping,
        paper=dict(seed=0),
        shrunk=(dict(seed=1),),
    ),
    _Experiment(
        "fig5_workflow", _run_fig5_workflow,
        paper=dict(seed=0, srr_id=_RICE, poll_interval_s=600.0),
        shrunk=(dict(seed=1, srr_id=_RICE, poll_interval_s=600.0),
                dict(seed=0, srr_id=_KIDNEY, poll_interval_s=1800.0)),
    ),
    _Experiment(
        "table1", _run_table1,
        paper=dict(seed=0, rows=TABLE1_ROWS),
        shrunk=(dict(seed=1, rows=TABLE1_ROWS[:1]),),
    ),
    _Experiment(
        "caching_ablation", _run_caching_ablation,
        paper=dict(seed=0, repeats=5, job_duration_s=900.0),
        shrunk=(dict(seed=1, repeats=4, job_duration_s=300.0),),
    ),
    _Experiment(
        "concurrent_load", _run_concurrent_load,
        paper=dict(seed=0, jobs=20, job_duration_s=120.0, poll_interval_s=10.0, cluster_count=1),
        shrunk=(dict(seed=1, jobs=10, job_duration_s=60.0, poll_interval_s=5.0, cluster_count=1),
                dict(seed=1, jobs=24, job_duration_s=90.0, poll_interval_s=10.0, cluster_count=3)),
    ),
    _Experiment(
        "baseline_comparison", _run_baseline_comparison,
        paper=dict(seed=0, cluster_count=3, requests_per_phase=6, job_duration_s=60.0),
        shrunk=(dict(seed=1, cluster_count=2, requests_per_phase=3, job_duration_s=20.0),),
    ),
)
