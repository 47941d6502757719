"""The kubelet: runs pods that the scheduler binds to its node.

The kubelet owns the pod lifecycle on a node: container startup delay, the
Running phase for the duration produced by the container workloads, then
Succeeded or Failed.  Long-running services use an infinite workload duration
and stay Running for the rest of the run.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cluster.apiserver import ApiServer, WatchEvent
from repro.cluster.node import Node
from repro.cluster.pod import Pod, PodPhase, WorkloadResult
from repro.sim.engine import Environment

__all__ = ["Kubelet"]


class Kubelet:
    """Node agent: watches for pods bound to its node and runs them."""

    def __init__(self, env: Environment, api: ApiServer, node: Node) -> None:
        self.env = env
        self.api = api
        self.node = node
        #: Uids of the pods whose run this kubelet has started and not finished.
        self._running: set[str] = set()
        self.pods_started = 0
        self.pods_completed = 0
        self.pods_failed = 0
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=True)

    # -- watch handling --------------------------------------------------------

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        if pod.node_name != self.node.name:
            return
        if pod.phase == PodPhase.PENDING and pod.metadata.uid not in self._running:
            self.env.process(self._run_pod(pod), name=f"kubelet:{pod.name}")
            self._running.add(pod.metadata.uid)

    # -- pod execution ----------------------------------------------------------

    def _run_pod(self, pod: Pod):
        startup = max((c.startup_delay_s for c in pod.spec.containers), default=0.0)
        yield self.env.timeout(startup)
        pod.phase = PodPhase.RUNNING
        pod.start_time = self.env.now
        self.pods_started += 1
        self.api.touch(Pod.KIND, pod)

        results: list[WorkloadResult] = []
        duration = 0.0
        failed_message: Optional[str] = None
        for container in pod.spec.containers:
            try:
                result = container.run_workload(pod)
            except Exception as exc:  # lint: allow[RL004] tenant workloads raise arbitrary exceptions; the pod must fail, not the kubelet
                failed_message = f"{container.name}: {exc}"
                result = WorkloadResult(duration_s=0.0, error=str(exc))
            results.append(result)
            duration = max(duration, result.duration_s)
            if result.error is not None:
                failed_message = failed_message or f"{container.name}: {result.error}"
        pod.results = results

        if math.isinf(duration):
            # Long-running service: the event never fires, so the pod stays
            # Running for the rest of the run.
            yield self.env.event(name=f"forever:{pod.name}")
            return
        yield self.env.timeout(duration)
        pod.finish_time = self.env.now
        if failed_message is not None:
            pod.phase = PodPhase.FAILED
            pod.message = failed_message
            self.pods_failed += 1
        else:
            pod.phase = PodPhase.SUCCEEDED
            self.pods_completed += 1
        self._running.discard(pod.metadata.uid)
        self.api.touch(Pod.KIND, pod)
