"""The LIDC gateway (paper §III-C, §IV, Figs. 2–5).

The gateway is the decision-maker that sits behind the cluster's externally
exposed NFD: it parses incoming compute Interests, runs the application-
specific validators, spawns a Kubernetes Job with the requested resources,
answers status polls, and publishes results back into the data lake.

Admission outcomes:

* *accepted* — a Data packet acknowledging the job (job id + status name);
* *rejected (validation)* — a Data packet with the error, since retrying at a
  different cluster would fail identically;
* *rejected (capacity)* — a ``Congestion`` NACK, so the NDN forwarding plane
  retries the request at another cluster announcing ``/ndn/k8s/compute``
  (this is what makes the overlay adapt to load without a central
  controller).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.cluster.job import Job
from repro.cluster.pod import PodPhase
from repro.cluster.quantity import Quantity, parse_memory
from repro.core import naming
from repro.core.caching import ResultCache
from repro.core.jobs import JobTracker
from repro.core.predictor import CompletionTimePredictor
from repro.core.service import ServiceDefinition, ServiceRegistry
from repro.core.spec import ComputeRequest, JobRecord, JobState
from repro.datalake.repo import DataLake
from repro.exceptions import InvalidComputeName, UnknownApplication
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, InterestLike, Nack, NackReason, WirePacket
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.sim.trace import Tracer

__all__ = ["Gateway"]


class Gateway:
    """The per-cluster LIDC gateway application."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        forwarder: Forwarder,
        datalake: DataLake,
        services: Optional[ServiceRegistry] = None,
        enable_result_cache: bool = False,
        predictor: Optional[CompletionTimePredictor] = None,
        reject_when_busy: bool = True,
        ack_freshness_s: float = 1.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.forwarder = forwarder
        self.datalake = datalake
        #: The single dispatch table for named computations.
        self.services = services if services is not None else ServiceRegistry.with_defaults()
        self.enable_result_cache = enable_result_cache
        self.cache = ResultCache()
        self.predictor = predictor
        self.reject_when_busy = reject_when_busy
        self.ack_freshness_s = ack_freshness_s
        self.tracker = JobTracker(cluster.name, clock=lambda: env.now)
        self.tracer = tracer or Tracer(clock=lambda: env.now)
        self.metrics = MetricsRegistry(clock=lambda: env.now)
        #: job id → (JobRecord, kubernetes Job) for active jobs.
        self._k8s_jobs: dict[str, Job] = {}

        self.compute_face = forwarder.attach_producer(naming.COMPUTE_PREFIX, self._on_compute)
        self.status_face = forwarder.attach_producer(naming.STATUS_PREFIX, self._on_status)

    # ------------------------------------------------------------------ service plane

    def register_service(self, definition: ServiceDefinition) -> ServiceDefinition:
        """Add a new application with one declarative definition (no other edits)."""
        return self.services.register(definition)

    # ------------------------------------------------------------------ compute

    def _on_compute(self, interest: InterestLike) -> "Data | Nack | WirePacket":
        self.metrics.counter("compute_interests").inc()
        self.tracer.record("gateway", "compute-received", name=str(interest.name))
        try:
            request = ComputeRequest.from_name(interest.name)
        except InvalidComputeName as exc:
            self.metrics.counter("compute_malformed").inc()
            return self._error_data(interest.name, f"malformed compute name: {exc}")

        validation = self.services.validate(request, self.datalake)
        if not validation.ok:
            self.metrics.counter("compute_rejected_validation").inc()
            self.tracer.record("gateway", "validation-rejected", name=str(interest.name),
                               reason=validation.message)
            return self._error_data(interest.name, validation.message)

        if not self.services.has_app(request.app):
            self.metrics.counter("compute_rejected_unknown_app").inc()
            return self._error_data(interest.name, f"unknown application {request.app!r}")

        if self.enable_result_cache and self.services.cacheable(request.app):
            cached = self.cache.lookup(request)
            if cached is not None:
                record = self.tracker.new_job(request)
                self.tracker.mark_completed(
                    record.job_id,
                    result_name=cached.result_name,
                    result_size_bytes=cached.result_size_bytes,
                    from_cache=True,
                )
                self.metrics.counter("cache_hits").inc()
                self.tracer.record("gateway", "cache-hit", name=str(interest.name),
                                   job_id=record.job_id)
                return self._ack_data(interest.name, record, cached_result=str(cached.result_name))

        requests = Quantity(cpu=request.cpu, memory=parse_memory(f"{request.memory_gb:g}Gi"))
        if self.reject_when_busy and not self.cluster.can_fit(requests):
            self.metrics.counter("compute_rejected_capacity").inc()
            self.tracer.record("gateway", "capacity-rejected", name=str(interest.name))
            return interest.nack(NackReason.CONGESTION)

        record = self._admit(request)
        return self._ack_data(interest.name, record)

    def submit_local(self, request: ComputeRequest, validate: bool = True) -> JobRecord:
        """Admit a request directly, bypassing the NDN control plane.

        Used by the centralized-controller baseline (which talks to cluster
        gateways over a management API rather than named Interests) and by
        tests that exercise the job path in isolation.
        """
        if validate:
            result = self.services.validate(request, self.datalake)
            result.raise_if_failed()
        return self._admit(request)

    def _admit(self, request: ComputeRequest) -> JobRecord:
        """Create the job record, the Kubernetes Job, and the completion watcher."""
        record = self.tracker.new_job(request)
        try:
            runner = self.services.runner_for(request.app)
        except UnknownApplication as exc:  # defensive; has_app was checked
            self.tracker.mark_failed(record.job_id, str(exc))
            return record
        pod_spec = runner.build_pod_spec(request, self.datalake)
        k8s_job = self.cluster.create_job(
            pod_spec,
            name=f"{record.job_id}-k8s",
            labels={"lidc-job-id": record.job_id, "app": request.app.lower()},
        )
        record.k8s_job_name = k8s_job.name
        self._k8s_jobs[record.job_id] = k8s_job
        self.metrics.counter("jobs_admitted").inc()
        self.tracer.record("gateway", "job-created", job_id=record.job_id,
                           k8s_job=k8s_job.name, app=request.app)
        self.env.process(self._watch_job(record, k8s_job), name=f"watch:{record.job_id}")
        return record

    def _watch_job(self, record: JobRecord, k8s_job: Job):
        """Wait for the Kubernetes Job to finish, then publish and finalise."""
        assert k8s_job.completion is not None
        yield k8s_job.completion
        self._k8s_jobs.pop(record.job_id, None)
        pods = self.cluster.jobs.pods_for(k8s_job)
        finished = [pod for pod in pods if pod.is_terminal]
        if k8s_job.is_complete and finished:
            pod = max(finished, key=lambda p: p.finish_time or 0.0)
            if pod.start_time is not None:
                record.started_at = pod.start_time
                record.state = JobState.RUNNING
            output = pod.output()
            result_name, result_size = self._publish_result(record, output)
            self.tracker.mark_completed(
                record.job_id, result_name=result_name, result_size_bytes=result_size
            )
            self.metrics.counter("jobs_completed").inc()
            self.tracer.record("gateway", "job-completed", job_id=record.job_id,
                               runtime=record.runtime())
            if (self.enable_result_cache and result_name is not None
                    and self.services.cacheable(record.request.app)):
                self.cache.store(record.request, result_name, result_size or 0, record.job_id)
            if self.predictor is not None and record.runtime() is not None:
                dataset_size = self._dataset_size(record.request)
                self.predictor.observe(record.request, record.runtime(), dataset_size)
        else:
            message = k8s_job.status.message or "kubernetes job failed"
            if finished:
                failed_pod = finished[-1]
                if failed_pod.message:
                    message = failed_pod.message
            self.tracker.mark_failed(record.job_id, message)
            self.metrics.counter("jobs_failed").inc()
            self.tracer.record("gateway", "job-failed", job_id=record.job_id, error=message)

    def _publish_result(self, record: JobRecord, output: dict) -> tuple[Optional[Name], Optional[int]]:
        """Store the job's output in the data lake under a result name."""
        result_id = f"{record.job_id}-output"
        size = output.get("result_size_bytes")
        payload = output.get("result_payload")
        if payload is None and size is None:
            return None, None
        dataset_record = self.datalake.publish_result(
            result_id,
            payload=payload,
            size_bytes=int(size) if size is not None else None,
            source_job=record.job_id,
            metadata={"app": record.request.app},
        )
        self.tracer.record("gateway", "result-published", job_id=record.job_id,
                           result=str(dataset_record.content_name),
                           size=dataset_record.size_bytes)
        return dataset_record.content_name, dataset_record.size_bytes

    def _dataset_size(self, request: ComputeRequest) -> float:
        if request.dataset and self.datalake.has_dataset(request.dataset):
            return float(self.datalake.size_of(request.dataset))
        return 0.0

    # ------------------------------------------------------------------ status

    def _on_status(self, interest: InterestLike) -> "Data | Nack | WirePacket":
        self.metrics.counter("status_interests").inc()
        try:
            job_id = naming.parse_status_name(interest.name)
        except InvalidComputeName as exc:
            return self._error_data(interest.name, f"malformed status name: {exc}")
        record = self.tracker.try_get(job_id)
        if record is None:
            # NACK rather than answering with an error: in a multi-cluster overlay
            # the job may live on another cluster, and the NACK lets the
            # forwarding plane retry the poll there.
            self.metrics.counter("status_unknown_job").inc()
            return interest.nack(NackReason.NO_ROUTE)
        self._refresh_state(record)
        payload = record.status_payload()
        self.tracer.record("gateway", "status-served", job_id=job_id, state=record.state.value)
        return Data(
            name=interest.name,
            content=json.dumps(payload, sort_keys=True).encode("utf-8"),
            freshness_period=self.ack_freshness_s,
        ).sign()

    def _refresh_state(self, record: JobRecord) -> None:
        """Promote Pending → Running by looking at the underlying pods."""
        if record.is_terminal:
            return
        k8s_job = self._k8s_jobs.get(record.job_id)
        if k8s_job is None:
            return
        pods = self.cluster.jobs.pods_for(k8s_job)
        if any(pod.phase == PodPhase.RUNNING for pod in pods):
            self.tracker.mark_running(record.job_id)

    # ------------------------------------------------------------------ replies

    def _ack_data(self, name: Name, record: JobRecord, cached_result: Optional[str] = None) -> Data:
        payload = {
            "accepted": True,
            "job_id": record.job_id,
            "status_name": str(naming.status_name(record.job_id)),
            "cluster": record.cluster,
        }
        if cached_result is not None:
            payload["cached"] = True
            payload["result_name"] = cached_result
        return Data(
            name=name,
            content=json.dumps(payload, sort_keys=True).encode("utf-8"),
            freshness_period=self.ack_freshness_s,
        ).sign()

    def _error_data(self, name: Name, message: str) -> Data:
        payload = {"accepted": False, "error": message}
        return Data(
            name=name,
            content=json.dumps(payload, sort_keys=True).encode("utf-8"),
            freshness_period=self.ack_freshness_s,
        ).sign()

    # ------------------------------------------------------------------ reporting

    def active_job_count(self) -> int:
        return len(self.tracker.active())

    def stats(self) -> dict[str, object]:
        return {
            "cluster": self.cluster.name,
            "jobs": self.tracker.stats(),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "services": self.services.applications(),
        }
