"""The scheduler's per-node cache against a from-scratch recompute, and its cost.

The scheduler keeps each node's live pods, their free capacity and the
pending queue from its own pod watch instead of walking the store.  The
state machine below checks that cache after every step against what a walk
of ``api.list("Pod")`` gives; the count test checks that an admission check
plus a bind costs the same however many finished pods the store holds.
"""

import os
import sys

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

import repro.cluster
from repro.cluster.apiserver import ApiServer
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.node import Node
from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Container, Pod, PodPhase, PodSpec, ResourceRequirements
from repro.cluster.quantity import Quantity
from repro.cluster.scheduler import Scheduler
from repro.sim.engine import Environment

#: CPU requests whose float sums depend on the order they are added in.
CPU_REQUESTS = ["100m", "300m", "700m", "1", "1.1", "2.5"]


def _pod(name: str, cpu: str, memory: str = "1Gi") -> Pod:
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(containers=[Container(
            name="c", resources=ResourceRequirements.of(cpu=cpu, memory=memory))]),
    )


def _recomputed_free(api: ApiServer, node: Node) -> Quantity:
    """A node's free capacity from a walk of every stored pod, in store order."""
    used = Quantity()
    for pod in api.list("Pod"):
        if pod.node_name == node.name and not pod.is_terminal:
            used = used + pod.total_requests()
    free = node.allocatable - used
    return Quantity(cpu=max(0.0, free.cpu), memory=max(0, free.memory))


class SchedulerCacheMachine(RuleBasedStateMachine):
    pods = Bundle("pods")

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.api = ApiServer(clock=lambda: self.now)
        self.scheduler = Scheduler(self.api)
        self.created = 0

    @rule(target=pods, cpu=st.sampled_from(CPU_REQUESTS), memory=st.sampled_from(["1Gi", "6Gi"]))
    def create_pod(self, cpu, memory):
        self.created += 1
        return self.api.create("Pod", _pod(f"p{self.created}", cpu, memory))

    @rule(cpu=st.sampled_from([1, 2, 4]), memory=st.sampled_from(["4Gi", "8Gi"]))
    def add_node(self, cpu, memory):
        self.api.create("Node", Node.build(f"n{len(self.api.list('Node'))}", cpu=cpu, memory=memory))

    @rule(pod=pods, phase=st.sampled_from([PodPhase.RUNNING, PodPhase.SUCCEEDED, PodPhase.FAILED]))
    def move(self, pod, phase):
        # Phases only move forward: Pending -> Running -> Succeeded | Failed.
        if pod.is_terminal or (phase == PodPhase.RUNNING and pod.phase == PodPhase.RUNNING):
            return
        pod.phase = phase
        self.api.touch("Pod", pod)

    @rule(pod=pods)
    def touch(self, pod):
        self.api.touch("Pod", pod)

    @rule()
    def tick(self):
        self.now += 1.0

    @invariant()
    def every_node_matches_a_recompute(self):
        for node in self.api.list("Node"):
            assert self.scheduler.node_free_capacity(node) == _recomputed_free(self.api, node)

    @invariant()
    def pending_queue_is_the_unbound_pending_pods_in_creation_order(self):
        expected = [pod.name for pod in self.api.list("Pod")
                    if pod.phase == PodPhase.PENDING and not pod.is_scheduled]
        assert [pod.name for pod in self.scheduler._pending.values()] == expected  # noqa: SLF001


TestSchedulerCacheAgainstRecompute = SchedulerCacheMachine.TestCase
TestSchedulerCacheAgainstRecompute.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None)


def test_an_older_pod_bound_late_is_summed_in_creation_order():
    """A pod that binds after a younger one still counts in store order.

    ``a`` waits for memory while the younger ``b`` binds; once ``d`` ends,
    ``a`` binds too.  (0.1 + 0.3) + 1.0 and (0.1 + 1.0) + 0.3 differ by one
    ulp, so summing in bind order would be off.
    """
    api = ApiServer()
    scheduler = Scheduler(api)
    node = api.create("Node", Node.build("n0", cpu=4, memory="16Gi"))
    api.create("Pod", _pod("c", "100m", "1Gi"))
    d = api.create("Pod", _pod("d", "100m", "10Gi"))
    a = api.create("Pod", _pod("a", "300m", "6Gi"))
    b = api.create("Pod", _pod("b", "1", "1Gi"))
    assert a.node_name is None and b.node_name == "n0"
    d.phase = PodPhase.SUCCEEDED
    api.touch("Pod", d)
    assert a.node_name == "n0"
    assert scheduler.node_free_capacity(node) == _recomputed_free(api, node)
    assert scheduler.node_free_capacity(node).cpu == 3.75 - ((0.1 + 0.3) + 1.0)


_CLUSTER_SRC = os.path.dirname(repro.cluster.__file__) + os.sep
#: Comprehension frames, which Python 3.12 inlines into their function (PEP 709).
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _cluster_calls(thunk) -> int:
    """Function calls into code under ``repro/cluster`` while ``thunk`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(_CLUSTER_SRC)
                and code.co_name not in _COMPREHENSIONS):
            calls += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


class TestSchedulingCostIsFlat:
    def _admit_and_bind_calls(self, finished: int) -> int:
        cluster = Cluster(Environment(), ClusterSpec(name="c", node_count=2))
        for index in range(finished):
            pod = cluster.api.create("Pod", _pod(f"done-{index}", "1"))
            pod.phase = PodPhase.SUCCEEDED
            cluster.api.touch("Pod", pod)
        assert len(cluster.api.list("Pod")) == finished
        request = Quantity(cpu=1.0, memory=1024 ** 3)
        probe = _pod("probe", "1")

        def admit_and_bind():
            assert cluster.can_fit(request)
            cluster.api.create("Pod", probe)

        calls = _cluster_calls(admit_and_bind)
        assert probe.is_scheduled
        return calls

    def test_one_admission_and_bind_cost_the_same_at_100_and_800_finished_pods(self):
        small, large = self._admit_and_bind_calls(100), self._admit_and_bind_calls(800)
        assert small > 0
        assert small == large
