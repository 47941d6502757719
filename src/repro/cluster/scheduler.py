"""The pod scheduler: predicates + priorities, like kube-scheduler.

Filtering (predicates)
    the pod's total resource requests fit in the node's free allocatable
    capacity.

Scoring (priorities)
    least-allocated: the node with the most capacity left after binding
    wins, which spreads load.

The scheduler is event-driven: every Pod or Node change triggers a scheduling
pass over the pending queue.
"""

from __future__ import annotations

from repro.cluster.apiserver import ApiServer, WatchEvent
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.quantity import Quantity

__all__ = ["Scheduler"]


class Scheduler:
    """Assigns pending pods to nodes."""

    def __init__(self, api: ApiServer) -> None:
        self.api = api
        self.unschedulable_count = 0
        api.watch(Pod.KIND, self._on_change, replay_existing=True)
        api.watch(Node.KIND, self._on_change, replay_existing=False)

    # -- watch handling -----------------------------------------------------------

    def _on_change(self, event: WatchEvent) -> None:
        self.reconcile()

    # -- public API -----------------------------------------------------------------

    def reconcile(self) -> None:
        """Try to schedule every pending, unbound pod."""
        pending = [
            pod for pod in self.api.list(Pod.KIND)
            if pod.phase == PodPhase.PENDING and not pod.is_scheduled
        ]
        # FIFO by creation time (a stable sort keeps store order on ties).
        pending.sort(key=lambda pod: pod.metadata.creation_time)
        for pod in pending:
            self._schedule_one(pod)

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
        return [
            node for node in self.api.list(Node.KIND)
            if requests.fits_within(self.node_free_capacity(node))
        ]

    # -- internals ---------------------------------------------------------------------

    def _schedule_one(self, pod: Pod) -> None:
        feasible = self.feasible_nodes(pod)
        if not feasible:
            self.unschedulable_count += 1
            return
        pod.node_name = self._pick(pod, feasible).name
        self.api.touch(Pod.KIND, pod)

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
        return 1.0 - (cpu_util + mem_util) / 2.0
