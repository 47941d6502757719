"""Deployments: keep N replicas of a pod template running.

The LIDC setup runs its long-lived components — the gateway NFD, the data
lake NFD and the file server — as Deployments so that the cluster restarts
them when they fail (paper §III-A: "Kubernetes handles performance
degradation or failures").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.apiserver import ApiServer, EventType, WatchEvent
from repro.cluster.objects import LabelSelector, ObjectMeta, generate_name
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.sim.engine import Environment

__all__ = ["Deployment", "DeploymentController"]

DEPLOYMENT_LABEL = "app"


@dataclass
class Deployment:
    """A Deployment object: a replica count plus a pod template."""

    metadata: ObjectMeta
    template: PodSpec
    replicas: int = 1
    selector: LabelSelector = field(default_factory=LabelSelector)
    ready_replicas: int = 0
    generation: int = 0

    KIND = "Deployment"

    @property
    def name(self) -> str:
        return self.metadata.name


class DeploymentController:
    """Maintains the desired replica count for every Deployment."""

    def __init__(self, env: Environment, api: ApiServer) -> None:
        self.env = env
        self.api = api
        self.pods_created = 0
        self.pods_replaced = 0
        self._reconciling: set[str] = set()
        api.watch(Deployment.KIND, self._on_deployment_event, replay_existing=True)
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=False)

    def create_deployment(
        self,
        template: PodSpec,
        name: Optional[str] = None,
        namespace: str = "ndnk8s",
        replicas: int = 1,
        labels: "dict[str, str] | None" = None,
    ) -> Deployment:
        """Create a Deployment; its pods carry ``app=<name>`` labels."""
        name = name or generate_name("deploy-")
        labels = dict(labels or {})
        labels.setdefault(DEPLOYMENT_LABEL, name)
        deployment = Deployment(
            metadata=ObjectMeta(name=name, namespace=namespace, labels=labels),
            template=template,
            replicas=replicas,
            selector=LabelSelector.from_dict({DEPLOYMENT_LABEL: labels[DEPLOYMENT_LABEL]}),
        )
        self.api.create(Deployment.KIND, deployment)
        return deployment

    def scale(self, deployment: Deployment, replicas: int) -> None:
        """Change the desired replica count (horizontal scaling)."""
        deployment.replicas = replicas
        deployment.generation += 1
        self.api.touch(Deployment.KIND, deployment)

    # -- watch handlers --------------------------------------------------------------

    def _on_deployment_event(self, event: WatchEvent) -> None:
        if event.type in (EventType.ADDED, EventType.MODIFIED):
            self._reconcile(event.obj)

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        app = pod.metadata.labels.get(DEPLOYMENT_LABEL)
        if not app:
            return
        for deployment in self.api.list(Deployment.KIND, namespace=pod.metadata.namespace):
            if deployment.selector.matches(pod.metadata):
                self._reconcile(deployment)

    # -- reconciliation -----------------------------------------------------------------

    def _deployment_pods(self, deployment: Deployment) -> list[Pod]:
        return self.api.list(
            Pod.KIND,
            namespace=deployment.metadata.namespace,
            selector=lambda pod: deployment.selector.matches(pod.metadata),
        )

    def _reconcile(self, deployment: Deployment) -> None:
        # Creating/deleting pods triggers pod watch events that re-enter this
        # method; guard against acting on stale listings mid-change.
        key = f"{deployment.metadata.namespace}/{deployment.name}"
        if key in self._reconciling:
            return
        self._reconciling.add(key)
        try:
            pods = self._deployment_pods(deployment)
            live = [pod for pod in pods if not pod.is_terminal]
            deployment.ready_replicas = sum(1 for pod in live if pod.phase == PodPhase.RUNNING)

            # Replace failed/succeeded pods and add missing replicas.
            missing = deployment.replicas - len(live)
            for _ in range(max(0, missing)):
                self._spawn_pod(deployment)
                self.pods_replaced += 1 if pods else 0

            # Scale down: delete the newest surplus pods.
            surplus = len(live) - deployment.replicas
            if surplus > 0:
                victims = sorted(
                    live, key=lambda pod: pod.metadata.creation_time, reverse=True
                )[:surplus]
                for pod in victims:
                    if self.api.exists(Pod.KIND, pod.name, pod.namespace):
                        self.api.delete(Pod.KIND, pod.name, pod.namespace)
        finally:
            self._reconciling.discard(key)

    def _spawn_pod(self, deployment: Deployment) -> Pod:
        self.pods_created += 1
        pod = Pod(
            metadata=ObjectMeta(
                name=generate_name(f"{deployment.name}-"),
                namespace=deployment.metadata.namespace,
                labels=dict(deployment.selector.as_dict()),
                owner=deployment.name,
            ),
            spec=deployment.template,
        )
        self.api.create(Pod.KIND, pod)
        return pod
