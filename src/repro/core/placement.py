"""Cluster-placement strategies.

In LIDC proper, placement emerges from name-based forwarding (the strategy on
``/ndn/k8s/compute`` plus NACK-based retry).  This module provides *explicit*
placement strategies over a set of clusters, used by

* the centralized-controller baseline (:mod:`repro.core.baseline`), which has
  to pick a cluster itself, and
* the "intelligence in the network" ablation (paper §VI/§VII), where the
  learned strategy ranks clusters by predicted completion time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from repro.cluster.quantity import Quantity, parse_memory
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.predictor import CompletionTimePredictor
from repro.core.spec import ComputeRequest
from repro.sim.rng import SeededRNG

__all__ = [
    "PlacementDecision",
    "PlacementStrategy",
    "RandomPlacement",
    "RoundRobinPlacement",
    "NearestPlacement",
    "LeastLoadedPlacement",
    "LearnedPlacement",
]


def _request_quantity(request: ComputeRequest) -> Quantity:
    """The Kubernetes resource quantity a request asks for."""
    return Quantity(cpu=request.cpu, memory=parse_memory(f"{request.memory_gb:g}Gi"))


@dataclass(frozen=True)
class PlacementDecision:
    """A chosen cluster plus the score that won."""

    cluster_name: str
    score: float
    reason: str


class PlacementStrategy(Protocol):
    """Chooses a cluster for a request."""

    name: str

    def select(self, request: ComputeRequest,
               clusters: Sequence[LIDCCluster]) -> Optional[PlacementDecision]:
        ...  # pragma: no cover - protocol


def _feasible(request: ComputeRequest, clusters: Sequence[LIDCCluster]) -> list[LIDCCluster]:
    """Clusters that can start the request right now.

    Falls back to *every* cluster when none currently has free capacity — the
    job then queues on whichever cluster the strategy picks (Kubernetes holds
    the pod Pending until resources free up).
    """
    quantity = _request_quantity(request)
    feasible = [cluster for cluster in clusters if cluster.cluster.can_fit(quantity)]
    return feasible if feasible else list(clusters)


class RandomPlacement:
    """Uniform random choice among clusters that can fit the request."""

    name = "random"

    def __init__(self, rng: Optional[SeededRNG] = None) -> None:
        self.rng = rng or SeededRNG(0)

    def select(self, request, clusters):
        feasible = _feasible(request, clusters)
        if not feasible:
            return None
        choice = self.rng.choice([c.name for c in feasible], stream="placement")
        return PlacementDecision(cluster_name=choice, score=1.0 / len(feasible),
                                 reason="uniform random over feasible clusters")


class RoundRobinPlacement:
    """Cycle through feasible clusters in name order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counter = 0

    def select(self, request, clusters):
        feasible = sorted(_feasible(request, clusters), key=lambda c: c.name)
        if not feasible:
            return None
        choice = feasible[self._counter % len(feasible)]
        self._counter += 1
        return PlacementDecision(cluster_name=choice.name, score=0.0, reason="round robin")


class NearestPlacement:
    """Pick the feasible cluster with the lowest latency from the client site."""

    name = "nearest"

    def __init__(self, latencies_s: dict[str, float]) -> None:
        #: Map of cluster name → latency from the submitting site, seconds.
        self.latencies_s = dict(latencies_s)

    def select(self, request, clusters):
        feasible = _feasible(request, clusters)
        if not feasible:
            return None
        best = min(feasible, key=lambda c: (self.latencies_s.get(c.name, float("inf")), c.name))
        return PlacementDecision(
            cluster_name=best.name,
            score=self.latencies_s.get(best.name, float("inf")),
            reason="lowest client-to-cluster latency",
        )


class LeastLoadedPlacement:
    """Pick the feasible cluster with the fewest active jobs (ties: lowest CPU use)."""

    name = "least-loaded"

    def select(self, request, clusters):
        feasible = _feasible(request, clusters)
        if not feasible:
            return None
        best = min(
            feasible,
            key=lambda c: (c.active_jobs(), c.utilization()["cpu"], c.name),
        )
        return PlacementDecision(
            cluster_name=best.name, score=float(best.active_jobs()),
            reason="fewest active jobs",
        )


class LearnedPlacement:
    """Rank clusters by predicted completion time (paper §VII future work).

    Predicted completion = predicted runtime (from the completion-time
    predictor) + estimated queueing delay on that cluster (active jobs ×
    mean runtime of the application so far).  Falls back to least-loaded
    behaviour until the predictor has seen enough completed jobs.
    """

    name = "learned"

    def __init__(self, predictor: CompletionTimePredictor,
                 fallback: Optional[PlacementStrategy] = None) -> None:
        self.predictor = predictor
        self.fallback = fallback or LeastLoadedPlacement()

    def select(self, request, clusters):
        feasible = _feasible(request, clusters)
        if not feasible:
            return None
        predicted_runtime = self.predictor.predict(request)
        if predicted_runtime is None:
            decision = self.fallback.select(request, feasible)
            if decision is None:
                return None
            return PlacementDecision(
                cluster_name=decision.cluster_name, score=decision.score,
                reason=f"predictor untrained; fell back to {self.fallback.name}",
            )
        scored: list[tuple[float, str]] = []
        for cluster in feasible:
            queue_delay = cluster.active_jobs() * predicted_runtime
            scored.append((predicted_runtime + queue_delay, cluster.name))
        scored.sort()
        best_score, best_name = scored[0]
        return PlacementDecision(
            cluster_name=best_name, score=best_score,
            reason="minimum predicted completion time",
        )
