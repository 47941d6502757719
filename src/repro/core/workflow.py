"""Workflow helpers: the genomics workflow of paper §IV and Fig. 5.

A :class:`GenomicsWorkflow` drives the full protocol — named compute request,
status polling, result retrieval — through an :class:`~repro.core.client.LIDCClient`
and decomposes the end-to-end latency into the protocol steps, which is what
the Fig. 5 experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.client import JobOutcome, LIDCClient
from repro.core.spec import ComputeRequest

__all__ = ["WorkflowReport", "GenomicsWorkflow"]


@dataclass(frozen=True)
class _StepTiming:
    """Duration of one protocol step."""

    step: str
    duration_s: float
    fraction: float


@dataclass
class WorkflowReport:
    """One workflow execution with its per-step latency decomposition."""

    outcome: JobOutcome
    steps: list[_StepTiming] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.outcome.succeeded

    @property
    def end_to_end_s(self) -> float:
        return self.outcome.end_to_end_s or 0.0

    def step(self, name: str) -> Optional[_StepTiming]:
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


def _decompose(outcome: JobOutcome) -> list[_StepTiming]:
    """Split an outcome's timeline into the Fig. 5 protocol steps."""
    total = outcome.end_to_end_s or 0.0
    steps = []
    for step_name, start_key, end_key in PROTOCOL_STEPS:
        if start_key in outcome.timeline and end_key in outcome.timeline:
            duration = outcome.timeline[end_key] - outcome.timeline[start_key]
        else:
            duration = 0.0
        fraction = duration / total if total > 0 else 0.0
        steps.append(_StepTiming(step=step_name, duration_s=duration, fraction=fraction))
    return steps


class GenomicsWorkflow:
    """Drives BLAST workflows through a client."""

    def __init__(self, client: LIDCClient, fetch_results: bool = True) -> None:
        self.client = client
        self.fetch_results = fetch_results

    def run(self, request: ComputeRequest):
        """Process generator: run one workflow; returns a :class:`WorkflowReport`."""
        outcome = yield self.client.submit(request, fetch_result=self.fetch_results).done
        return WorkflowReport(outcome=outcome, steps=_decompose(outcome))

    def blast(self, srr_id: str, reference: str = "HUMAN", cpu: float = 2,
              memory_gb: float = 4):
        """Process generator: BLAST one SRA sample against a reference."""
        request = ComputeRequest(
            app="BLAST", cpu=cpu, memory_gb=memory_gb, dataset=srr_id, reference=reference
        )
        return (yield from self.run(request))
