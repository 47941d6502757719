"""Centralized-controller baseline.

The paper's motivation (§I) is that existing multi-cluster tooling relies on a
*logically centralized* control plane that "struggles to handle dynamic
cluster environments" and is a single point of failure.  To quantify that
claim, this module implements the obvious alternative design: a federation
controller that knows every cluster, picks one per job with an explicit
placement strategy, and talks to cluster gateways over a management API
(bypassing the name-based control plane).

``run_baseline_comparison`` compares it against the LIDC overlay under cluster
churn and controller failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.cluster_endpoint import LIDCCluster
from repro.core.placement import LeastLoadedPlacement, PlacementDecision, PlacementStrategy
from repro.core.spec import ComputeRequest, JobRecord, JobState
from repro.exceptions import LIDCError, PlacementError, ValidationFailure
from repro.sim.engine import Environment

__all__ = ["ControllerUnavailable", "CentralizedSubmission", "CentralizedController"]


class ControllerUnavailable(LIDCError):
    """Raised when submitting to a failed central controller."""


@dataclass
class CentralizedSubmission:
    """Record of one submission through the central controller."""

    request: ComputeRequest
    decision: Optional[PlacementDecision]
    record: Optional[JobRecord]
    error: Optional[str] = None
    submitted_at: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.record is not None


class CentralizedController:
    """A single federation controller placing jobs on registered clusters."""

    def __init__(
        self,
        env: Environment,
        clusters: Optional[Sequence[LIDCCluster]] = None,
        strategy: Optional[PlacementStrategy] = None,
    ) -> None:
        self.env = env
        self._clusters: dict[str, LIDCCluster] = {c.name: c for c in (clusters or [])}
        self.strategy: PlacementStrategy = strategy or LeastLoadedPlacement()
        self.alive = True
        self.submissions: list[CentralizedSubmission] = []
        self.rejected_unavailable = 0

    # -- membership (requires manual reconfiguration, unlike the overlay) ----------

    def register_cluster(self, cluster: LIDCCluster) -> None:
        self._clusters[cluster.name] = cluster

    def deregister_cluster(self, name: str) -> Optional[LIDCCluster]:
        return self._clusters.pop(name, None)

    def clusters(self) -> list[LIDCCluster]:
        return [self._clusters[name] for name in sorted(self._clusters)]

    # -- failure injection -------------------------------------------------------------

    def fail(self) -> None:
        """The controller process dies: every new submission is rejected."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    # -- submission -----------------------------------------------------------------------

    def submit(self, request: ComputeRequest) -> CentralizedSubmission:
        """Place and admit one request; raises when the controller is down."""
        if not self.alive:
            self.rejected_unavailable += 1
            raise ControllerUnavailable("central controller is unavailable")
        submission = CentralizedSubmission(
            request=request, decision=None, record=None, submitted_at=self.env.now
        )
        try:
            decision = self.strategy.select(request, self.clusters())
            if decision is None:
                raise PlacementError(f"no registered cluster can fit {request.describe()}")
            submission.decision = decision
            cluster = self._clusters[decision.cluster_name]
            submission.record = cluster.gateway.submit_local(request)
        except (PlacementError, ValidationFailure) as exc:
            submission.error = str(exc)
        self.submissions.append(submission)
        return submission

    def try_submit(self, request: ComputeRequest) -> CentralizedSubmission:
        """Like :meth:`submit` but records controller unavailability instead of raising."""
        try:
            return self.submit(request)
        except ControllerUnavailable as exc:
            submission = CentralizedSubmission(
                request=request, decision=None, record=None,
                error=str(exc), submitted_at=self.env.now,
            )
            self.submissions.append(submission)
            return submission

    # -- reporting -------------------------------------------------------------------------

    def placement_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for submission in self.submissions:
            if submission.decision is not None and submission.record is not None:
                counts[submission.decision.cluster_name] = (
                    counts.get(submission.decision.cluster_name, 0) + 1
                )
        return counts

    def completed_jobs(self) -> list[JobRecord]:
        return [
            s.record for s in self.submissions
            if s.record is not None and s.record.state == JobState.COMPLETED
        ]

    def stats(self) -> dict[str, object]:
        accepted = sum(1 for s in self.submissions if s.accepted)
        return {
            "alive": self.alive,
            "clusters": sorted(self._clusters),
            "submissions": len(self.submissions),
            "accepted": accepted,
            "rejected": len(self.submissions) - accepted,
            "rejected_unavailable": self.rejected_unavailable,
            "placement_counts": self.placement_counts(),
        }
