"""Compute request and job record types."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from repro.cluster.job import Job
from repro.exceptions import InvalidComputeName
from repro.core import naming
from repro.core.service import BASE_SCHEMA, wire_number
from repro.ndn.name import Name

__all__ = ["ComputeRequest", "JobState", "JobRecord"]


@dataclass(frozen=True)
class ComputeRequest:
    """A location-independent computation request.

    This is the client-side object; its :meth:`to_name` form is what actually
    travels through the network as an Interest name.
    """

    app: str
    cpu: float = 2
    memory_gb: float = 4
    dataset: Optional[str] = None
    reference: Optional[str] = None
    params: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.app:
            raise InvalidComputeName("compute request needs an application name")
        if not (math.isfinite(self.cpu) and self.cpu > 0):
            raise InvalidComputeName(f"cpu must be positive and finite, got {self.cpu}")
        if not (math.isfinite(self.memory_gb) and self.memory_gb > 0):
            raise InvalidComputeName(
                f"memory_gb must be positive and finite, got {self.memory_gb}")

    # -- naming ------------------------------------------------------------------

    def to_params(self) -> dict[str, str]:
        """The flat parameter dict encoded into the compute name."""
        params: dict[str, str] = {
            "app": self.app,
            "cpu": wire_number(self.cpu),
            "mem": wire_number(self.memory_gb),
        }
        if self.dataset is not None:
            params["srr"] = self.dataset
        if self.reference is not None:
            params["ref"] = self.reference
        for key, value in self.params.items():
            # Reject both the canonical built-in keys and their schema aliases
            # (memory, dataset): a name carrying `mem=...&memory=...` would be
            # rejected by from_params, so to_params must not build it.
            if key in params or BASE_SCHEMA.field_for(key) is not None:
                raise InvalidComputeName(f"parameter {key!r} collides with a built-in field")
            params[key] = str(value)
        return params

    def to_name(self) -> Name:
        """The ``/ndn/k8s/compute/...`` name for this request."""
        return naming.compute_name(self.to_params())

    @classmethod
    def from_params(cls, params: Mapping[str, str]) -> "ComputeRequest":
        """Rebuild a request from a decoded parameter dict.

        Parsing is schema-driven (:data:`repro.core.service.BASE_SCHEMA`):
        alias keys (``memory`` → ``mem``, ``dataset`` → ``srr``) are
        canonicalised at parse time, non-numeric resource values raise
        :class:`InvalidComputeName` rather than a bare ``ValueError``, and
        supplying a field under two spellings at once is rejected.
        """
        typed, extras = BASE_SCHEMA.parse(params)
        return cls(
            app=typed["app"],
            cpu=typed["cpu"],
            memory_gb=typed["mem"],
            dataset=typed["srr"],
            reference=typed["ref"],
            params=extras,
        )

    @classmethod
    def from_name(cls, name: "Name | str") -> "ComputeRequest":
        """Parse a compute Interest name into a request."""
        return cls.from_params(naming.parse_compute_name(name))

    def cache_key(self) -> str:
        """Canonical key for result caching (resource amounts excluded)."""
        return naming.canonical_request_key(self.to_params())

    def describe(self) -> str:
        extras = f" {self.params}" if self.params else ""
        return (
            f"{self.app}(dataset={self.dataset}, ref={self.reference}, "
            f"cpu={self.cpu:g}, mem={self.memory_gb:g}GB){extras}"
        )


class JobState(str, Enum):
    """The four states the paper's status API exposes (§IV-A)."""

    PENDING = "Pending"
    RUNNING = "Running"
    COMPLETED = "Completed"
    FAILED = "Failed"

    def is_terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED)


@dataclass
class JobRecord:
    """Gateway-side record of one accepted computation."""

    job_id: str
    request: ComputeRequest
    cluster: str
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result_name: Optional[Name] = None
    result_size_bytes: Optional[int] = None
    error: Optional[str] = None
    #: The Kubernetes Job running this computation (None until admitted).
    k8s_job: Optional[Job] = None
    from_cache: bool = False

    @property
    def is_terminal(self) -> bool:
        return self.state.is_terminal()

    def runtime(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def status_payload(self) -> dict:
        """The JSON document a status poll returns.

        Only what can change since the ack: the state and, once terminal,
        the result fields or the error.  The job id, the cluster and the
        request are the client's already (the ack and its own request).
        """
        payload: dict = {"state": self.state.value}
        if self.state == JobState.COMPLETED:
            payload["result_name"] = str(self.result_name) if self.result_name else None
            payload["result_size_bytes"] = self.result_size_bytes
            payload["runtime_s"] = self.runtime()
            payload["from_cache"] = self.from_cache
        elif self.state == JobState.FAILED:
            payload["error"] = self.error or "unknown error"
        return payload
