"""Centralized-controller baseline.

The paper's motivation (§I) is that existing multi-cluster tooling relies on a
*logically centralized* control plane that "struggles to handle dynamic
cluster environments" and is a single point of failure.  To quantify that
claim, this module implements the obvious alternative design: a federation
controller that knows every cluster, sends each job to the least-loaded one
(fewest active jobs), and talks to cluster gateways over a management API
(bypassing the name-based control plane).

``run_baseline_comparison`` compares it against the LIDC overlay under cluster
churn and controller failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.cluster_endpoint import LIDCCluster
from repro.core.spec import ComputeRequest, JobRecord
from repro.exceptions import (
    ControllerUnavailable,
    PlacementError,
    UnknownApplication,
    ValidationFailure,
)
from repro.sim.engine import Environment

__all__ = ["CentralizedController"]


@dataclass
class _CentralizedSubmission:
    """Record of one submission through the central controller."""

    request: ComputeRequest
    cluster: Optional[str] = None
    record: Optional[JobRecord] = None
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
    ) -> None:
        self.env = env
        self._clusters: dict[str, LIDCCluster] = {c.name: c for c in (clusters or [])}
        self.alive = True
        self.submissions: list[_CentralizedSubmission] = []
        self.rejected_unavailable = 0

    # -- membership (fixed when the controller is built, unlike the overlay) -------

    def clusters(self) -> list[LIDCCluster]:
        return [self._clusters[name] for name in sorted(self._clusters)]

    # -- failure injection -------------------------------------------------------------

    def fail(self) -> None:
        """The controller process dies: every new submission is rejected."""
        self.alive = False

    # -- submission -----------------------------------------------------------------------

    def _place(self, request: ComputeRequest) -> LIDCCluster:
        """The cluster with the fewest active jobs (ties: lowest CPU use, then name).

        Only clusters that can start ``request`` now are candidates, unless none
        can: then every cluster is, and the job queues there as a Pending pod.
        """
        clusters = self.clusters()
        if not clusters:
            raise PlacementError(f"no registered cluster to place {request.describe()}")
        candidates = [c for c in clusters if c.gateway.can_fit(request)] or clusters
        return min(candidates, key=lambda c: (c.active_jobs(), c.utilization()["cpu"], c.name))

    def submit(self, request: ComputeRequest) -> _CentralizedSubmission:
        """Place and admit one request; raises when the controller is down."""
        if not self.alive:
            self.rejected_unavailable += 1
            raise ControllerUnavailable("central controller is unavailable")
        submission = _CentralizedSubmission(request=request, submitted_at=self.env.now)
        try:
            cluster = self._place(request)
            submission.cluster = cluster.name
            submission.record = cluster.gateway.submit_local(request)
        except (PlacementError, UnknownApplication, ValidationFailure) as exc:
            submission.error = str(exc)
        self.submissions.append(submission)
        return submission

    def try_submit(self, request: ComputeRequest) -> _CentralizedSubmission:
        """Like :meth:`submit` but records controller unavailability instead of raising."""
        try:
            return self.submit(request)
        except ControllerUnavailable as exc:
            submission = _CentralizedSubmission(
                request=request, error=str(exc), submitted_at=self.env.now
            )
            self.submissions.append(submission)
            return submission
