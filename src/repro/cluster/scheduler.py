"""The pod scheduler: predicates + priorities, like kube-scheduler.

Filtering (predicates)
    the pod's total resource requests fit in the node's free allocatable
    capacity.

Scoring (priorities)
    least-allocated: the node with the most capacity left after binding
    wins, which spreads load.

The scheduler is event-driven: every Pod or Node change triggers a scheduling
pass over the pending queue.

The scheduler cache
    Nothing deletes a pod, so the store grows with the run; the scheduler never
    walks it.  Like kube-scheduler's ``NodeInfo``, it keeps from its own pod
    watch:

    * per node, its bound, non-terminal pods: a pod joins when the scheduler
      binds it and leaves when the watch shows it Succeeded or Failed;
    * per node, the free capacity those pods leave, summed again only after
      they change;
    * the pending, unbound pods, in creation order.

    Invariant, after every watch event: a node's free capacity equals its
    allocatable capacity minus the requests of the non-terminal pods bound to
    it, summed in store order, and the pending queue holds exactly the stored
    pods that are Pending and unbound, in store order.  Store order is the
    order the watch shows pods ADDED, since the cluster builds the scheduler
    before any other Pod watcher.  The sum keeps store order because float
    addition is not associative, and a one-ulp difference can flip a
    least-allocated tie.  So admission checks, scheduling and utilisation cost
    O(nodes + live pods), not O(pods ever stored).
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from repro.cluster.apiserver import ApiServer, WatchEvent
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.quantity import Quantity

__all__ = ["Scheduler"]


class Scheduler:
    """Assigns pending pods to nodes."""

    def __init__(self, api: ApiServer) -> None:
        self.api = api
        self._ranks = itertools.count()
        #: uid -> creation rank of every pending or live pod.
        self._rank: dict[str, int] = {}
        #: uid -> pod, for every Pending, unbound pod, oldest first.
        self._pending: dict[str, Pod] = {}
        #: node name -> {creation rank: pod} of its bound, non-terminal pods.
        self._bound: defaultdict[str, dict[int, Pod]] = defaultdict(dict)
        #: node name -> the free capacity its bound pods leave.
        self._free: dict[str, Quantity] = {}
        # List, then watch: a replayed pod's pass must see every pod stored.
        for pod in api.list(Pod.KIND):
            self._track(pod)
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=True)
        api.watch(Node.KIND, self._on_node_event, replay_existing=False)

    # -- watch handling -----------------------------------------------------------

    def _on_pod_event(self, event: WatchEvent) -> None:
        self._track(event.obj)
        self.reconcile()

    def _on_node_event(self, event: WatchEvent) -> None:
        self.reconcile()

    def _track(self, pod: Pod) -> None:
        """Bring the cache in line with ``pod`` as it stands now."""
        uid = pod.metadata.uid
        if pod.is_terminal:
            rank = self._rank.pop(uid, None)
            self._pending.pop(uid, None)
            if rank is not None and pod.node_name is not None:
                self._bound[pod.node_name].pop(rank, None)
                self._free.pop(pod.node_name, None)
            return
        rank = self._rank.setdefault(uid, next(self._ranks))
        if not pod.is_scheduled:
            if pod.phase == PodPhase.PENDING:
                self._pending.setdefault(uid, pod)
            else:
                self._pending.pop(uid, None)
        elif rank not in self._bound[pod.node_name]:
            self._pending.pop(uid, None)
            self._bound[pod.node_name][rank] = pod
            self._free.pop(pod.node_name, None)

    # -- public API -----------------------------------------------------------------

    def reconcile(self) -> None:
        """Try to schedule every pending, unbound pod, oldest first."""
        for uid, pod in list(self._pending.items()):
            # A bind's watch event runs a nested pass, which may have bound it.
            if uid in self._pending:
                self._schedule_one(pod)

    def node_free_capacity(self, node: Node) -> Quantity:
        """Allocatable capacity minus requests of non-terminal pods bound to the node."""
        free = self._free.get(node.name)
        if free is None:
            bound = self._bound[node.name]
            used = Quantity()
            for rank in sorted(bound):
                used = used + bound[rank].total_requests()
            left = node.allocatable - used
            free = self._free[node.name] = Quantity(
                cpu=max(0.0, left.cpu), memory=max(0, left.memory))
        return free

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
            return
        pod.node_name = self._pick(pod, feasible).name
        self._track(pod)
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
