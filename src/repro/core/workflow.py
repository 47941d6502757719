"""Workflow helpers: the genomics workflow of paper §IV and Fig. 5.

A :class:`GenomicsWorkflow` drives the full protocol — named compute request,
status polling, result retrieval — through an :class:`~repro.core.client.LIDCClient`
and decomposes the end-to-end latency into the protocol steps, which is what
the Fig. 5 experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.client import JobOutcome, LIDCClient
from repro.core.spec import ComputeRequest

__all__ = ["StepTiming", "WorkflowReport", "GenomicsWorkflow", "CampaignResult", "decompose"]


@dataclass(frozen=True)
class StepTiming:
    """Duration of one protocol step."""

    step: str
    duration_s: float
    fraction: float


@dataclass
class WorkflowReport:
    """One workflow execution with its per-step latency decomposition."""

    outcome: JobOutcome
    steps: list[StepTiming] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.outcome.succeeded

    @property
    def end_to_end_s(self) -> float:
        return self.outcome.end_to_end_s or 0.0

    def step(self, name: str) -> Optional[StepTiming]:
        for timing in self.steps:
            if timing.step == name:
                return timing
        return None


#: The protocol steps of Fig. 5, in order, as (name, start-key, end-key) over
#: the client timeline.
PROTOCOL_STEPS = (
    ("submit_and_ack", "submitted", "acknowledged"),
    ("computation_and_status", "acknowledged", "completed"),
    ("result_retrieval", "completed", "finished"),
)


def decompose(outcome: JobOutcome) -> list[StepTiming]:
    """Split an outcome's timeline into the Fig. 5 protocol steps."""
    total = outcome.end_to_end_s or 0.0
    steps = []
    for step_name, start_key, end_key in PROTOCOL_STEPS:
        if start_key in outcome.timeline and end_key in outcome.timeline:
            duration = outcome.timeline[end_key] - outcome.timeline[start_key]
        else:
            duration = 0.0
        fraction = duration / total if total > 0 else 0.0
        steps.append(StepTiming(step=step_name, duration_s=duration, fraction=fraction))
    return steps


@dataclass
class CampaignResult:
    """Aggregate over a sequence of workflow executions."""

    reports: list[WorkflowReport] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for report in self.reports if report.succeeded)

    @property
    def failed(self) -> int:
        return len(self.reports) - self.completed

    def mean_end_to_end_s(self) -> float:
        finished = [report.end_to_end_s for report in self.reports if report.succeeded]
        return sum(finished) / len(finished) if finished else 0.0

    def clusters_used(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for report in self.reports:
            cluster = report.outcome.submission.cluster
            if cluster:
                counts[cluster] = counts.get(cluster, 0) + 1
        return counts

    def cache_hits(self) -> int:
        return sum(1 for report in self.reports if report.outcome.from_cache)


class GenomicsWorkflow:
    """Drives BLAST workflows through a client."""

    def __init__(self, client: LIDCClient, poll_interval_s: Optional[float] = None,
                 fetch_results: bool = True) -> None:
        self.client = client
        self.poll_interval_s = poll_interval_s
        self.fetch_results = fetch_results

    # -- single request ------------------------------------------------------------

    def run(self, request: ComputeRequest, unique: bool = True):
        """Process generator: run one workflow; returns a :class:`WorkflowReport`."""
        outcome = yield from self.client.run_workflow(
            request, poll_interval_s=self.poll_interval_s,
            fetch_result=self.fetch_results, unique=unique,
        )
        return WorkflowReport(outcome=outcome, steps=decompose(outcome))

    def blast(self, srr_id: str, reference: str = "HUMAN", cpu: float = 2,
              memory_gb: float = 4, unique: bool = True):
        """Process generator: BLAST one SRA sample against a reference."""
        request = ComputeRequest(
            app="BLAST", cpu=cpu, memory_gb=memory_gb, dataset=srr_id, reference=reference
        )
        return (yield from self.run(request, unique=unique))

    # -- campaigns -----------------------------------------------------------------------

    def run_campaign(self, requests: Sequence[ComputeRequest], unique: bool = True,
                     inter_arrival_s: float = 0.0):
        """Process generator: run several workflows sequentially; returns a campaign."""
        campaign = CampaignResult()
        for index, request in enumerate(requests):
            if index > 0 and inter_arrival_s > 0:
                yield self.client.env.timeout(inter_arrival_s)
            report = yield from self.run(request, unique=unique)
            campaign.reports.append(report)
        return campaign

    def run_concurrent(self, requests: Sequence[ComputeRequest], unique: bool = True,
                       stagger_s: float = 0.0):
        """Process generator: drive all workflows concurrently through one client.

        Every request becomes an in-flight :class:`~repro.core.client.JobHandle`
        on the shared Consumer; the campaign completes when the last handle
        does, so the makespan is the slowest job rather than the sum.
        """
        handles = self.client.submit_many(
            requests, unique=unique, fetch_result=self.fetch_results,
            poll_interval_s=self.poll_interval_s, stagger_s=stagger_s,
        )
        yield self.client.wait_all(handles)
        campaign = CampaignResult()
        for handle in handles:
            outcome = handle.outcome
            campaign.reports.append(
                WorkflowReport(outcome=outcome, steps=decompose(outcome))
            )
        return campaign
