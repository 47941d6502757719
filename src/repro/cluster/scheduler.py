"""The pod scheduler: predicates + priorities, like kube-scheduler.

Filtering (predicates)
    node is Ready, node selector matches, and the pod's total resource
    requests fit in the node's free allocatable capacity.

Scoring (priorities)
    ``LEAST_ALLOCATED`` (default, spreads load), ``MOST_ALLOCATED``
    (bin-packs), or ``BALANCED`` (minimises the CPU/memory utilisation skew).

The scheduler is event-driven: every Pod or Node change triggers a scheduling
pass over the pending queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.cluster.apiserver import ApiServer, WatchEvent
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.quantity import Quantity

__all__ = [
    "SchedulingPolicy",
    "Scheduler",
    "ShardAutoscaler",
    "ScalingDecision",
]


class SchedulingPolicy(str, Enum):
    """Node scoring policy."""

    LEAST_ALLOCATED = "least-allocated"
    MOST_ALLOCATED = "most-allocated"
    BALANCED = "balanced"


class Scheduler:
    """Assigns pending pods to nodes."""

    def __init__(
        self,
        api: ApiServer,
        policy: "SchedulingPolicy | str" = SchedulingPolicy.LEAST_ALLOCATED,
    ) -> None:
        self.api = api
        self.policy = SchedulingPolicy(policy)
        self.unschedulable_count = 0
        api.watch(Pod.KIND, self._on_change, replay_existing=True)
        api.watch(Node.KIND, self._on_change, replay_existing=False)

    # -- watch handling -----------------------------------------------------------

    def _on_change(self, event: WatchEvent) -> None:
        self.reconcile()

    # -- public API -----------------------------------------------------------------

    def reconcile(self) -> int:
        """Try to schedule every pending, unbound pod; returns how many were bound."""
        pending = [
            pod for pod in self.api.list(Pod.KIND)
            if pod.phase == PodPhase.PENDING and not pod.is_scheduled
        ]
        # Highest priority first, then FIFO by creation time.
        pending.sort(key=lambda pod: (-pod.spec.priority, pod.metadata.creation_time))
        bound = 0
        for pod in pending:
            if self._schedule_one(pod):
                bound += 1
        return bound

    def node_free_capacity(self, node: Node) -> Quantity:
        """Allocatable capacity minus requests of non-terminal pods bound to the node."""
        used = Quantity()
        for pod in self.api.list(Pod.KIND):
            if pod.node_name == node.name and not pod.is_terminal:
                used = used + pod.total_requests()
        free = node.allocatable - used
        return Quantity(cpu=max(0.0, free.cpu), memory=max(0, free.memory))

    def feasible_nodes(self, pod: Pod) -> list[Node]:
        """Nodes passing every predicate for ``pod``."""
        requests = pod.total_requests()
        feasible = []
        for node in self.api.list(Node.KIND):
            if not node.is_schedulable:
                continue
            if pod.spec.node_selector and not node.matches_selector(pod.spec.node_selector):
                continue
            if not requests.fits_within(self.node_free_capacity(node)):
                continue
            feasible.append(node)
        return feasible

    # -- internals ---------------------------------------------------------------------

    def _schedule_one(self, pod: Pod) -> bool:
        feasible = self.feasible_nodes(pod)
        if not feasible:
            self.unschedulable_count += 1
            self.api.record_event(
                Pod.KIND, pod.metadata, "FailedScheduling",
                f"0/{self.api.count(Node.KIND)} nodes available for {pod.total_requests()}",
            )
            return False
        best = self._pick(pod, feasible)
        pod.node_name = best.name
        self.api.record_event(Pod.KIND, pod.metadata, "Scheduled", f"Bound to {best.name}")
        self.api.touch(Pod.KIND, pod)
        return True

    def _pick(self, pod: Pod, feasible: list[Node]) -> Node:
        requests = pod.total_requests()
        scored = [(self._score(node, requests), node.name, node) for node in feasible]
        scored.sort(key=lambda item: (-item[0], item[1]))
        return scored[0][2]

    def _score(self, node: Node, requests: Quantity) -> float:
        allocatable = node.allocatable
        free = self.node_free_capacity(node)
        free_after = free - requests
        cpu_util = 1.0 - (free_after.cpu / allocatable.cpu if allocatable.cpu else 0.0)
        mem_util = 1.0 - (free_after.memory / allocatable.memory if allocatable.memory else 0.0)
        if self.policy == SchedulingPolicy.LEAST_ALLOCATED:
            return 1.0 - (cpu_util + mem_util) / 2.0
        if self.policy == SchedulingPolicy.MOST_ALLOCATED:
            return (cpu_util + mem_util) / 2.0
        # BALANCED: prefer nodes where CPU and memory utilisation stay close.
        return 1.0 - abs(cpu_util - mem_util)

    # -- reporting ----------------------------------------------------------------------

    def utilization(self) -> dict[str, dict[str, float]]:
        """Per-node CPU/memory utilisation fractions."""
        report: dict[str, dict[str, float]] = {}
        for node in self.api.list(Node.KIND):
            allocatable = node.allocatable
            free = self.node_free_capacity(node)
            report[node.name] = {
                "cpu": 1.0 - (free.cpu / allocatable.cpu if allocatable.cpu else 0.0),
                "memory": 1.0 - (free.memory / allocatable.memory if allocatable.memory else 0.0),
            }
        return report


# ----------------------------------------------------------- shard autoscaling


@dataclass
class ScalingDecision:
    """Record of one shard-count change made by the autoscaler."""

    at: float
    reason: str
    old_shards: int
    new_shards: int
    rate_per_shard: float


class ShardAutoscaler:
    """Drives a sharded gateway's shard count from its observed load.

    The data-plane counterpart of the horizontal pod autoscaler: a periodic
    control loop samples the gateway node's ``packets_dispatched`` counter,
    converts the delta to a per-shard dispatch rate, and calls
    ``node.resize()`` when the rate crosses a watermark — scaling *up* above
    ``high_watermark`` packets/s/shard and *down* below ``low_watermark``,
    bounded by ``min_shards``/``max_shards`` with a ``cooldown_s`` gap
    between changes so a rebalance can settle before the next decision.

    ``node`` is anything with the :class:`~repro.ndn.shard.ShardedForwarder`
    resize surface (``metrics``, ``num_shards``, ``resize``); the layering
    stays duck-typed so the k8s control plane never imports the data plane.

    Failure signals (:meth:`signal_failure` — wired by chaos drivers or
    gateway health checks) take priority over the rate: the next evaluation
    after a failure scales up for headroom even with a quiet dispatch
    counter, because a crash-looping shard under-reports its own load.

    When ``deployment`` (a ``(DeploymentController, Deployment)`` pair,
    e.g. the cluster's ``gateway-nfd`` system deployment) is given, every
    shard-count change is mirrored into the deployment's replica count —
    the k8s view of the same scaling decision.
    """

    def __init__(
        self,
        env,
        node,
        interval_s: float = 1.0,
        high_watermark: float = 100.0,
        low_watermark: float = 10.0,
        min_shards: int = 1,
        max_shards: int = 8,
        cooldown_s: float = 5.0,
        deployment: "tuple | None" = None,
        start: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"autoscaler interval must be positive, got {interval_s}")
        if not 1 <= min_shards <= max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got {min_shards}..{max_shards}"
            )
        if low_watermark >= high_watermark:
            raise ValueError(
                f"low watermark {low_watermark} must sit below high {high_watermark}"
            )
        self.env = env
        self.node = node
        self.interval_s = interval_s
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.cooldown_s = cooldown_s
        self._deployment = deployment
        self._dispatched = node.metrics.counter("packets_dispatched")
        self._last_value = self._dispatched.value
        self._last_scaled_at: Optional[float] = None
        self._failure_signals = 0
        self.evaluations = 0
        self.decisions: list[ScalingDecision] = []
        if start:
            env.process(self._run(), name=f"shard-autoscaler:{node.name}")

    def signal_failure(self, count: int = 1) -> None:
        """Report gateway failures; the next evaluation scales up for headroom."""
        self._failure_signals += count

    def _run(self):
        while True:
            yield self.env.timeout(self.interval_s)
            self.evaluate()

    def evaluate(self) -> Optional[ScalingDecision]:
        """One control-loop pass; returns the decision made, if any."""
        self.evaluations += 1
        now = self.env.now
        value = self._dispatched.value
        delta = value - self._last_value
        self._last_value = value
        failures, self._failure_signals = self._failure_signals, 0
        rate_per_shard = delta / self.interval_s / max(1, self.node.num_shards)
        if (
            self._last_scaled_at is not None
            and now - self._last_scaled_at < self.cooldown_s
        ):
            return None
        old = self.node.num_shards
        target = old
        reason = None
        if failures and old < self.max_shards:
            target = old + 1
            reason = f"scale-up: {failures} failure signal(s)"
        elif rate_per_shard > self.high_watermark and old < self.max_shards:
            target = old + 1
            reason = f"scale-up: {rate_per_shard:.1f} pkt/s/shard above high watermark"
        elif rate_per_shard < self.low_watermark and old > self.min_shards:
            target = old - 1
            reason = f"scale-down: {rate_per_shard:.1f} pkt/s/shard below low watermark"
        if reason is None:
            return None
        self.node.resize(target)
        self._last_scaled_at = now
        decision = ScalingDecision(
            at=now, reason=reason, old_shards=old, new_shards=target,
            rate_per_shard=rate_per_shard,
        )
        self.decisions.append(decision)
        if self._deployment is not None:
            controller, deployment = self._deployment
            controller.scale(deployment, target)
        return decision
