"""Jobs: run-to-completion workloads.

The LIDC gateway translates every accepted computation Interest into exactly
one Job (paper §IV: "The gateway node then runs a Kubernetes job with the
specified resources").  The Job controller creates the pods, tracks their
completion, applies the backoff limit on failures and exposes a completion
event that the gateway waits on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.apiserver import ApiServer, EventType, WatchEvent
from repro.cluster.objects import ObjectMeta, generate_name
from repro.cluster.pod import Pod, PodPhase, PodSpec
from repro.sim.engine import Environment, Event

__all__ = ["JobSpec", "JobStatus", "Job", "JobController"]

JOB_LABEL = "job-name"


@dataclass
class JobSpec:
    """Desired state of a Job."""

    template: PodSpec
    completions: int = 1
    parallelism: int = 1
    backoff_limit: int = 0
    active_deadline_s: Optional[float] = None


@dataclass
class JobStatus:
    """Observed state of a Job."""

    active: int = 0
    succeeded: int = 0
    failed: int = 0
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    condition: str = "Pending"  # Pending | Running | Complete | Failed
    message: str = ""


@dataclass
class Job:
    """A Job object."""

    metadata: ObjectMeta
    spec: JobSpec
    status: JobStatus = field(default_factory=JobStatus)
    #: Event triggered when the job reaches a terminal condition.
    completion: Optional[Event] = None

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

    def duration(self) -> Optional[float]:
        if self.status.start_time is None or self.status.completion_time is None:
            return None
        return self.status.completion_time - self.status.start_time


class JobController:
    """Creates pods for Jobs and rolls pod results up into job status."""

    def __init__(self, env: Environment, api: ApiServer) -> None:
        self.env = env
        self.api = api
        self.jobs_completed = 0
        #: (namespace, job name) -> the job's pods in creation order, so a
        #: lookup does not scan every pod the cluster ever ran (terminal pods
        #: are never deleted).  Filled by ``_spawn_pod``, not from the watch:
        #: the scheduler's watcher re-enters ``_on_pod_event`` with MODIFIED
        #: before this controller sees ADDED, and a reconcile that misses
        #: the new pod spawns a duplicate.  Pruned on DELETED.
        self._pods: dict[tuple[str, str], list[Pod]] = {}
        api.watch(Job.KIND, self._on_job_event, replay_existing=True)
        api.watch(Pod.KIND, self._on_pod_event, replay_existing=False)

    # -- job creation helper --------------------------------------------------------

    def create_job(
        self,
        template: PodSpec,
        name: Optional[str] = None,
        namespace: str = "ndnk8s",
        labels: "dict[str, str] | None" = None,
        completions: int = 1,
        parallelism: int = 1,
        backoff_limit: int = 0,
        active_deadline_s: Optional[float] = None,
    ) -> Job:
        """Create a Job object in the API server and return it."""
        job = Job(
            metadata=ObjectMeta(
                name=name or generate_name("job-"),
                namespace=namespace,
                labels=dict(labels or {}),
            ),
            spec=JobSpec(
                template=template,
                completions=completions,
                parallelism=parallelism,
                backoff_limit=backoff_limit,
                active_deadline_s=active_deadline_s,
            ),
            completion=self.env.event(name="job-completion"),
        )
        self.api.create(Job.KIND, job)
        return job

    # -- watch handlers ----------------------------------------------------------------

    def _on_job_event(self, event: WatchEvent) -> None:
        if event.type == EventType.ADDED:
            job: Job = event.obj
            self._reconcile_job(job)
            if job.spec.active_deadline_s is not None:
                self.env.process(self._deadline_watch(job), name=f"deadline:{job.name}")

    def _deadline_watch(self, job: Job):
        """Fail the job (and stop its pods) once the active deadline passes."""
        assert job.spec.active_deadline_s is not None
        yield self.env.timeout(job.spec.active_deadline_s)
        if job.is_terminal:
            return
        for pod in self._job_pods(job):
            if not pod.is_terminal and self.api.exists(Pod.KIND, pod.name, pod.namespace):
                self.api.delete(Pod.KIND, pod.name, pod.namespace)
        self._complete(job, "Failed", "active deadline exceeded")

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod: Pod = event.obj
        job_name = pod.metadata.labels.get(JOB_LABEL)
        if not job_name:
            return
        if event.type == EventType.DELETED:
            pods = self._pods.get((pod.metadata.namespace, job_name))
            if pods is not None:
                pods[:] = [other for other in pods if other.name != pod.name]
        job = self.api.try_get(Job.KIND, job_name, pod.metadata.namespace)
        if job is not None and not job.is_terminal:
            self._reconcile_job(job)

    # -- reconciliation ------------------------------------------------------------------

    def _job_pods(self, job: Job) -> list[Pod]:
        return list(self._pods.get((job.metadata.namespace, job.name), ()))

    def _reconcile_job(self, job: Job) -> None:
        if job.is_terminal:
            return
        pods = self._job_pods(job)
        succeeded = sum(1 for pod in pods if pod.phase == PodPhase.SUCCEEDED)
        failed = sum(1 for pod in pods if pod.phase == PodPhase.FAILED)
        active = sum(1 for pod in pods if not pod.is_terminal)
        job.status.succeeded = succeeded
        job.status.failed = failed
        job.status.active = active
        if job.status.start_time is None and pods:
            job.status.start_time = job.metadata.creation_time

        if succeeded >= job.spec.completions:
            self._complete(job, "Complete", "job reached its completion count")
            return
        if failed > job.spec.backoff_limit:
            self._complete(job, "Failed", f"backoff limit exceeded ({failed} failures)")
            return
        if (
            job.spec.active_deadline_s is not None
            and job.status.start_time is not None
            and self.env.now - job.status.start_time > job.spec.active_deadline_s
        ):
            self._complete(job, "Failed", "active deadline exceeded")
            return

        # Create pods until we have enough active/succeeded to reach completions,
        # bounded by the allowed parallelism.
        needed = job.spec.completions - succeeded
        to_create = min(job.spec.parallelism, needed) - active
        for _ in range(max(0, to_create)):
            self._spawn_pod(job)
        if active > 0 or to_create > 0:
            job.status.condition = "Running"

    def _spawn_pod(self, job: Job) -> Pod:
        index = job.status.succeeded + job.status.failed + job.status.active
        pod = Pod(
            metadata=ObjectMeta(
                name=f"{job.name}-pod-{index}-{job.metadata.uid or 'x'}",
                namespace=job.metadata.namespace,
                labels={**job.metadata.labels, JOB_LABEL: job.name},
                owner=job.name,
            ),
            spec=job.spec.template,
        )
        self._pods.setdefault((job.metadata.namespace, job.name), []).append(pod)
        self.api.create(Pod.KIND, pod)
        job.status.active += 1
        return pod

    def _complete(self, job: Job, condition: str, message: str) -> None:
        job.status.condition = condition
        job.status.message = message
        job.status.completion_time = self.env.now
        if job.status.start_time is None:
            job.status.start_time = job.metadata.creation_time
        if condition == "Complete":
            self.jobs_completed += 1
        self.api.record_event(Job.KIND, job.metadata, condition, message)
        self.api.touch(Job.KIND, job)
        if job.completion is not None and not job.completion.triggered:
            job.completion.succeed(job)

    # -- queries -------------------------------------------------------------------------

    def pods_for(self, job: Job) -> list[Pod]:
        """All pods created for ``job``."""
        return self._job_pods(job)
