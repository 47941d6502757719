"""Jobs: run-to-completion workloads.

The LIDC gateway translates every accepted computation Interest into exactly
one Job (paper §IV: "The gateway node then runs a Kubernetes job with the
specified resources").  A Job runs exactly one pod: it completes when that
pod succeeds and fails, carrying the pod's message, when the pod fails.  Its
completion event is what the gateway waits on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.apiserver import ApiServer, EventType, WatchEvent
from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.sim.engine import Environment, Event

__all__ = ["JobStatus", "Job", "JobController"]

JOB_LABEL = "job-name"


@dataclass
class JobStatus:
    """Observed state of a Job."""

    condition: str = "Pending"  # Pending | Running | Complete | Failed
    message: str = ""


@dataclass
class Job:
    """A Job object: the template of its one pod, and that pod once created."""

    metadata: ObjectMeta
    template: PodSpec
    #: Event triggered when the job reaches a terminal condition.
    completion: Event
    status: JobStatus = field(default_factory=JobStatus, init=False)
    #: The job's pod.  Set by ``JobController._spawn_pod`` before the pod is
    #: stored, not from the watch: the scheduler's watcher re-enters
    #: ``_on_pod_event`` with MODIFIED before the controller sees ADDED, and
    #: a reconcile that misses the new pod would spawn a duplicate.
    pod: Optional[Pod] = field(default=None, init=False)

    KIND = "Job"

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def is_complete(self) -> bool:
        return self.status.condition == "Complete"

    @property
    def is_failed(self) -> bool:
        return self.status.condition == "Failed"

    @property
    def is_terminal(self) -> bool:
        return self.is_complete or self.is_failed


class JobController:
    """Creates each Job's pod and rolls the pod's result up into job status."""

    def __init__(self, env: Environment, api: ApiServer) -> None:
        self.env = env
        self.api = api
        self.jobs_completed = 0
        api.watch(Job.KIND, self._on_job_event, replay_existing=True)
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=False)

    def create_job(self, template: PodSpec, name: str,
                   labels: "dict[str, str] | None" = None) -> Job:
        """Create a Job object in the API server and return it."""
        job = Job(
            metadata=ObjectMeta(name=name, namespace="ndnk8s", labels=dict(labels or {})),
            template=template,
            completion=self.env.event(name="job-completion"),
        )
        self.api.create(Job.KIND, job)
        return job

    # -- watch handlers ----------------------------------------------------------------

    def _on_job_event(self, event: WatchEvent) -> None:
        if event.type == EventType.ADDED:
            self._reconcile_job(event.obj)

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        job_name = pod.metadata.labels.get(JOB_LABEL)
        if not job_name:
            return
        job = self.api.try_get(Job.KIND, job_name, pod.metadata.namespace)
        if job is not None:
            self._reconcile_job(job)

    # -- reconciliation ------------------------------------------------------------------

    def _reconcile_job(self, job: Job) -> None:
        if job.is_terminal:
            return
        pod = job.pod
        if pod is None:
            self._spawn_pod(job)
            job.status.condition = "Running"
        elif pod.phase == PodPhase.SUCCEEDED:
            self._complete(job, "Complete", "its pod succeeded")
        elif pod.phase == PodPhase.FAILED:
            self._complete(job, "Failed", pod.message)
        else:
            job.status.condition = "Running"

    def _spawn_pod(self, job: Job) -> None:
        job.pod = Pod(
            metadata=ObjectMeta(
                name=f"{job.name}-pod-0-{job.metadata.uid}",
                namespace=job.metadata.namespace,
                labels={**job.metadata.labels, JOB_LABEL: job.name},
            ),
            spec=job.template,
        )
        self.api.create(Pod.KIND, job.pod)

    def _complete(self, job: Job, condition: str, message: str) -> None:
        job.status.condition = condition
        job.status.message = message
        if condition == "Complete":
            self.jobs_completed += 1
        self.api.touch(Job.KIND, job)
        job.completion.succeed(job)
