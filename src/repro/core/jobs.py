"""Gateway-side job tracking.

The gateway assigns a job id ``<cluster>-job-<n>`` to every accepted compute
Interest, keeps a :class:`~repro.core.spec.JobRecord` per job, and answers
status polls for ``/ndn/k8s/status/<cluster>/<n>`` from this tracker (paper
§IV-A; :func:`repro.core.naming.status_name` maps one to the other).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.core import naming
from repro.core.spec import ComputeRequest, JobRecord, JobState
from repro.exceptions import JobNotFound
from repro.ndn.name import Name

__all__ = ["JobTracker"]


class JobTracker:
    """Creates job ids and tracks job records for one gateway."""

    def __init__(self, cluster_name: str, clock: Optional[Callable[[], float]] = None) -> None:
        self.cluster_name = cluster_name
        self._clock = clock or (lambda: 0.0)
        self._records: dict[str, JobRecord] = {}
        self._counter = itertools.count(1)

    # -- creation -----------------------------------------------------------------

    def new_job(self, request: ComputeRequest) -> JobRecord:
        """Create a Pending record with a fresh job id."""
        job_id = naming.job_id(self.cluster_name, next(self._counter))
        record = JobRecord(
            job_id=job_id,
            request=request,
            cluster=self.cluster_name,
            state=JobState.PENDING,
            submitted_at=self._clock(),
        )
        self._records[job_id] = record
        return record

    # -- state transitions ------------------------------------------------------------

    def mark_running(self, job_id: str) -> JobRecord:
        record = self.get(job_id)
        if record.state == JobState.PENDING:
            record.state = JobState.RUNNING
            record.started_at = self._clock()
        return record

    def mark_completed(self, job_id: str, result_name: "Name | None" = None,
                       result_size_bytes: Optional[int] = None,
                       from_cache: bool = False) -> JobRecord:
        record = self.get(job_id)
        if record.started_at is None:
            record.started_at = record.submitted_at
        record.state = JobState.COMPLETED
        record.finished_at = self._clock()
        record.result_name = result_name
        record.result_size_bytes = result_size_bytes
        record.from_cache = from_cache
        return record

    def mark_failed(self, job_id: str, error: str) -> JobRecord:
        record = self.get(job_id)
        if record.started_at is None:
            record.started_at = record.submitted_at
        record.state = JobState.FAILED
        record.finished_at = self._clock()
        record.error = error
        return record

    # -- queries -------------------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise JobNotFound(f"unknown job id {job_id!r}") from None

    def try_get(self, job_id: str) -> Optional[JobRecord]:
        return self._records.get(job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self, state: Optional[JobState] = None) -> list[JobRecord]:
        records = sorted(self._records.values(), key=lambda rec: rec.submitted_at)
        if state is not None:
            records = [rec for rec in records if rec.state == state]
        return records

    def active(self) -> list[JobRecord]:
        """Jobs that have not reached a terminal state."""
        return [rec for rec in self._records.values() if not rec.is_terminal]
