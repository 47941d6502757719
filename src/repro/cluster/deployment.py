"""Deployments: keep one replica of a pod template running.

The LIDC setup runs its long-lived components — the gateway NFD, the data
lake NFD and the file server — as Deployments so that the cluster restarts
them when they fail (paper §III-A: "Kubernetes handles performance
degradation or failures").  Each runs a single replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.apiserver import ApiServer, WatchEvent
from repro.cluster.objects import LabelSelector, ObjectMeta, generate_name
from repro.cluster.pod import Pod, PodSpec
from repro.sim.engine import Environment

__all__ = ["Deployment", "DeploymentController"]

DEPLOYMENT_LABEL = "app"


@dataclass
class Deployment:
    """A Deployment object: a pod template kept running as one replica."""

    metadata: ObjectMeta
    template: PodSpec
    selector: LabelSelector
    #: The replica.  Set by ``DeploymentController._spawn_pod`` before the
    #: pod is stored, as ``Job.pod`` is: the pod's own watch events re-enter
    #: the reconcile, which must already see it.
    pod: Optional[Pod] = field(default=None, init=False)

    KIND = "Deployment"

    @property
    def name(self) -> str:
        return self.metadata.name


class DeploymentController:
    """Keeps one live pod for every Deployment."""

    def __init__(self, env: Environment, api: ApiServer) -> None:
        self.env = env
        self.api = api
        self.pods_created = 0
        self.pods_replaced = 0
        api.watch(Deployment.KIND, self._on_deployment_event, replay_existing=True)
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=False)

    def create_deployment(self, template: PodSpec, name: str) -> Deployment:
        """Create a Deployment; its pods carry the ``app=<name>`` label."""
        labels = {DEPLOYMENT_LABEL: name}
        deployment = Deployment(
            metadata=ObjectMeta(name=name, namespace="ndnk8s", labels=labels),
            template=template,
            selector=LabelSelector.from_dict(labels),
        )
        self.api.create(Deployment.KIND, deployment)
        return deployment

    # -- watch handlers --------------------------------------------------------------

    def _on_deployment_event(self, event: WatchEvent) -> None:
        self._reconcile(event.obj)

    def _on_pod_event(self, event: WatchEvent) -> None:
        # A Deployment's selector is always ``app=<its name>``, so the pod's
        # ``app`` label is the key of the one Deployment that selects it (a
        # job pod's ``app`` is its application, which names none).
        pod: Pod = event.obj
        app = pod.metadata.labels.get(DEPLOYMENT_LABEL)
        if not app:
            return
        deployment = self.api.try_get(Deployment.KIND, app, pod.metadata.namespace)
        if deployment is not None:
            self._reconcile(deployment)

    # -- reconciliation -----------------------------------------------------------------

    def _reconcile(self, deployment: Deployment) -> None:
        # Replace a finished replica (or start the first one).
        pod = deployment.pod
        if pod is None or pod.is_terminal:
            self._spawn_pod(deployment)
            self.pods_replaced += 0 if pod is None else 1

    def _spawn_pod(self, deployment: Deployment) -> None:
        self.pods_created += 1
        pod = deployment.pod = Pod(
            metadata=ObjectMeta(
                name=generate_name(f"{deployment.name}-"),
                namespace=deployment.metadata.namespace,
                labels=dict(deployment.selector.as_dict()),
            ),
            spec=deployment.template,
        )
        self.api.create(Pod.KIND, pod)
