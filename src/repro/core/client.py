"""The LIDC client library: non-blocking job sessions over named Interests.

The client is what a workflow runs on its own machine: it expresses compute
Interests, receives the acknowledgement with the job id, tracks the status
name that acknowledgement hands back (``/ndn/k8s/status/<cluster>/<n>``), and
finally retrieves the result from the data lake by name (paper Fig. 5).  The
client never learns which cluster executed the job unless it inspects the
acknowledgement — that is the point.

:meth:`LIDCClient.submit` returns a :class:`JobHandle` immediately: a future
for one computation whose lifecycle (submit → ack → status tracking → result
retrieval) is driven by a background simulation process.  Many handles can be
in flight on one client at once — :meth:`LIDCClient.submit_many` drives N
concurrent jobs through a single :class:`~repro.ndn.client.Consumer` — and
status is tracked with long-lived status Interests whose re-expression
interval backs off exponentially (instead of the old fixed 30 s poll loop).

Synchronous call sites use::

    handle = client.submit(request)
    outcome = env.run(until=handle.done)

and process generators use::

    outcome = yield client.submit(request).done
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional, Sequence

from repro.core import naming
from repro.core.spec import ComputeRequest, JobState
from repro.exceptions import InterestNacked, InterestTimeout, LIDCError, ProcessInterrupt
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.sim.engine import Environment, Event, Timeout

__all__ = ["SubmissionResult", "JobOutcome", "JobHandle", "LIDCClient", "RetryPolicy"]

#: Default cap on the interval between status Interests, in simulated seconds.
#: Tracking starts at :data:`INITIAL_POLL_S` and backs off exponentially up
#: to this cap.
DEFAULT_POLL_INTERVAL_S = 30.0
#: First re-expression interval of the status-tracking loop.
INITIAL_POLL_S = 1.0
#: Multiplier applied to the status interval after each non-terminal answer.
POLL_BACKOFF = 2.0
#: Interest lifetime for LIDC control-plane exchanges.
LIFETIME_S = 10.0
#: Status polls after which a job that is still not terminal fails the session.
MAX_POLLS = 100_000
#: Default self-healing for control-plane exchanges: two retransmissions.
DEFAULT_RETRY_POLICY = RetryPolicy(max_retries=2)


@dataclass
class SubmissionResult:
    """Outcome of the initial compute Interest."""

    accepted: bool
    job_id: Optional[str] = None
    status_name: Optional[Name] = None
    cluster: Optional[str] = None
    cached: bool = False
    result_name: Optional[Name] = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    acknowledged_at: float = 0.0

    @property
    def ack_latency(self) -> float:
        return self.acknowledged_at - self.submitted_at


@dataclass
class JobOutcome:
    """Outcome of a full submit → wait → retrieve workflow."""

    request: ComputeRequest
    submission: SubmissionResult
    state: JobState = JobState.FAILED
    result_name: Optional[Name] = None
    result_size_bytes: Optional[int] = None
    result_payload: Optional[bytes] = None
    runtime_s: Optional[float] = None
    error: Optional[str] = None
    from_cache: bool = False
    status_polls: int = 0
    #: Named timestamps of the protocol steps (the Fig. 5 step decomposition).
    timeline: dict[str, float] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.state == JobState.COMPLETED

    @property
    def end_to_end_s(self) -> Optional[float]:
        if "finished" not in self.timeline or "submitted" not in self.timeline:
            return None
        return self.timeline["finished"] - self.timeline["submitted"]


class JobHandle:
    """A non-blocking session for one submitted computation.

    Returned immediately by :meth:`LIDCClient.submit`; a background process
    drives the whole protocol.  ``handle.done`` is a simulation event that
    triggers with the final :class:`JobOutcome` once the job is terminal
    (it never fails — errors are materialised in the outcome), so handles
    compose with ``env.all_of`` and ``env.run(until=...)``.
    """

    _id_counter = itertools.count(1)

    def __init__(
        self,
        client: "LIDCClient",
        request: ComputeRequest,
        done: Event,
        unique: bool = True,
        fetch_result: bool = False,
        delay_s: float = 0.0,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.handle_id = next(self._id_counter)
        self.client = client
        self.request = request
        self.done = done
        self.unique = unique
        self.fetch_result = fetch_result
        self.delay_s = delay_s
        #: Whole-job budget in simulated seconds, counted from submission;
        #: when exceeded the session resolves to a FAILED outcome.
        self.deadline_s = deadline_s
        self.deadline_exceeded = False
        #: Protocol timestamps, shared with the outcome's timeline.
        self.timeline: dict[str, float] = {}
        self.job_id: Optional[str] = None
        self.cancelled = False
        self.status_polls = 0
        self._state = JobState.PENDING
        self._submission: Optional[SubmissionResult] = None
        self._outcome: Optional[JobOutcome] = None
        self._status_payload: Optional[dict] = None
        self._process = None
        #: The armed whole-job deadline, cancelled when the session ends.
        self._deadline: Optional[Timeout] = None

    # -- state ------------------------------------------------------------------

    @property
    def state(self) -> JobState:
        """The paper's four-state lifecycle, as currently known to the client."""
        if self._outcome is not None:
            return self._outcome.state
        return self._state

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def submission(self) -> Optional[SubmissionResult]:
        return self._submission

    @property
    def accepted(self) -> Optional[bool]:
        """True/False once the gateway answered; None while the ack is pending."""
        if self._submission is None:
            return None
        return self._submission.accepted

    @property
    def cluster(self) -> Optional[str]:
        return self._submission.cluster if self._submission else None

    @property
    def outcome(self) -> Optional[JobOutcome]:
        return self._outcome

    @property
    def succeeded(self) -> bool:
        return self._outcome is not None and self._outcome.succeeded

    def status(self) -> dict:
        """The latest known status document (client-side view, no network).

        A status reply carries only what changes (the state, and the result
        or error once terminal); the job id and cluster come from the ack.
        """
        payload: dict = {"state": self.state.value}
        if self._status_payload is not None:
            payload.update(self._status_payload)
        if self.job_id:
            payload["job_id"] = self.job_id
        if self._submission is not None and self._submission.cluster:
            payload["cluster"] = self._submission.cluster
        return payload

    def result(self) -> Optional[bytes]:
        """The retrieved result payload (None until fetched / when modelled)."""
        return self._outcome.result_payload if self._outcome else None

    # -- cancellation ------------------------------------------------------------

    def cancel(self) -> bool:
        """Stop tracking this job client-side.

        The computation itself keeps running on the cluster (the paper's
        protocol has no revocation message); the handle resolves to a FAILED
        outcome carrying the cancellation reason.  Returns False when the job
        already finished.
        """
        if self.finished:
            return False
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("cancelled by client")
            return True
        return False

    # -- driver internals --------------------------------------------------------

    def _complete(self, outcome: JobOutcome) -> None:
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None
        self._outcome = outcome
        self._state = outcome.state
        if not self.done.triggered:
            self.done.succeed(outcome)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<JobHandle #{self.handle_id} {self.request.app}"
                f" job_id={self.job_id} state={self.state.value}>")


class LIDCClient:
    """Client-side API: submit computations, track status, retrieve results."""

    _instance_counter = itertools.count(1)

    def __init__(
        self,
        env: Environment,
        forwarder: Forwarder,
        name: Optional[str] = None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.env = env
        self.name = name or f"lidc-client-{next(self._instance_counter)}"
        #: Cap on the interval between status Interests of every job.
        self.poll_interval_s = poll_interval_s
        #: Self-healing policy for every control-plane exchange (submission
        #: ack, status tracking, result retrieval).  None means no
        #: retransmission.
        self.retry_policy = retry_policy
        self.consumer = Consumer(env, forwarder, name=self.name)
        self._request_counter = itertools.count(1)
        self.submissions = 0
        self._in_flight: set[JobHandle] = set()
        self.max_in_flight = 0

    # ------------------------------------------------------------------ submission

    def _request_name(self, request: ComputeRequest, unique: bool) -> Name:
        if not unique:
            return request.to_name()
        params = request.to_params()
        params["req"] = f"{self.name}-{next(self._request_counter)}"
        return naming.compute_name(params)

    def submit_interest(self, request: ComputeRequest, unique: bool = True):
        """Process generator: express one compute Interest; returns a
        :class:`SubmissionResult` (the raw ack exchange, no status tracking).

        ``unique=False`` reuses the canonical request name, which lets the
        network's content store and the gateway's result cache answer repeated
        identical requests (the paper's caching future-work).
        """
        name = self._request_name(request, unique)
        submitted_at = self.env.now
        self.submissions += 1
        try:
            data = yield self.consumer.express_interest(
                name, lifetime=LIFETIME_S, must_be_fresh=True,
                retry_policy=self.retry_policy,
            )
        except (InterestTimeout, InterestNacked) as exc:
            return SubmissionResult(
                accepted=False, error=str(exc),
                submitted_at=submitted_at, acknowledged_at=self.env.now,
            )
        payload = json.loads(data.content_text())
        if not payload.get("accepted", False):
            return SubmissionResult(
                accepted=False, error=payload.get("error", "rejected"),
                submitted_at=submitted_at, acknowledged_at=self.env.now,
            )
        return SubmissionResult(
            accepted=True,
            job_id=payload["job_id"],
            status_name=Name(payload["status_name"]),
            cluster=payload.get("cluster"),
            cached=bool(payload.get("cached", False)),
            result_name=Name(payload["result_name"]) if payload.get("result_name") else None,
            submitted_at=submitted_at,
            acknowledged_at=self.env.now,
        )

    def submit(
        self,
        request: ComputeRequest,
        unique: bool = True,
        fetch_result: bool = False,
        delay_s: float = 0.0,
        deadline_s: Optional[float] = None,
    ) -> JobHandle:
        """Submit a computation and return a :class:`JobHandle` immediately.

        The handle's lifecycle runs as a background process; the calling
        code decides when (and whether) to wait on ``handle.done``.
        ``deadline_s`` bounds the whole session: a job not terminal within
        the budget resolves to a FAILED outcome (typed, never a hang).
        """
        handle = JobHandle(
            self, request,
            done=self.env.event(name=f"job:{request.app}"),
            unique=unique, fetch_result=fetch_result,
            delay_s=delay_s, deadline_s=deadline_s,
        )
        self._in_flight.add(handle)
        self.max_in_flight = max(self.max_in_flight, len(self._in_flight))
        handle._process = self.env.process(
            self._drive(handle), name=f"job-session:{handle.handle_id}"
        )
        if deadline_s is not None:
            handle._deadline = self.env.timeout(delay_s + deadline_s)
            handle._deadline.callbacks.append(partial(self._deadline_expired, handle))
        return handle

    @staticmethod
    def _deadline_expired(handle: JobHandle, _timer: Timeout) -> None:
        """A handle's whole-job deadline fell due before its session ended."""
        handle._deadline = None
        if not handle.finished and handle._process is not None and handle._process.is_alive:
            handle.deadline_exceeded = True
            handle._process.interrupt(
                f"job deadline of {handle.deadline_s}s exceeded"
            )

    def submit_many(
        self,
        requests: Sequence[ComputeRequest],
        fetch_result: bool = False,
        stagger_s: float = 0.0,
    ) -> list[JobHandle]:
        """Submit N computations concurrently through this client's one Consumer.

        ``stagger_s`` spaces the submissions out (handle *i* submits at
        ``i * stagger_s``); the default submits everything at once.
        """
        return [
            self.submit(request, fetch_result=fetch_result, delay_s=index * stagger_s)
            for index, request in enumerate(requests)
        ]

    def wait_all(self, handles: Iterable[JobHandle]) -> Event:
        """A composite event triggering when every handle is terminal."""
        return self.env.all_of([handle.done for handle in handles])

    @property
    def in_flight(self) -> int:
        """Number of job sessions currently being driven."""
        return len(self._in_flight)

    # ------------------------------------------------------------------ session driver

    def _drive(self, handle: JobHandle):
        """Background process running one handle's full protocol."""
        try:
            outcome = yield from self._lifecycle(handle)
        except ProcessInterrupt as exc:
            handle.cancelled = True
            outcome = self._failed_outcome(
                handle, str(exc.cause) if exc.cause else "cancelled")
        except Exception as exc:  # lint: allow[RL004] handle.done must always trigger; any session error becomes a FAILED outcome
            # Unexpected errors (corrupt status payloads, non-gateway
            # producers, ...) are materialised into a FAILED outcome so
            # waiters never hang on an event that cannot trigger.
            outcome = self._failed_outcome(handle, f"job session error: {exc!r}")
        finally:
            self._in_flight.discard(handle)
        handle._complete(outcome)
        return outcome

    def _failed_outcome(self, handle: JobHandle, reason: str) -> JobOutcome:
        """Resolve a dying session into a FAILED outcome carrying ``reason``."""
        outcome = handle._outcome
        if outcome is None:
            outcome = JobOutcome(
                request=handle.request,
                submission=SubmissionResult(
                    accepted=False, error=reason,
                    submitted_at=handle.timeline.get("submitted", self.env.now),
                    acknowledged_at=self.env.now,
                ),
                timeline=handle.timeline,
            )
        outcome.state = JobState.FAILED
        outcome.error = reason
        handle.timeline.setdefault("finished", self.env.now)
        return outcome

    def _lifecycle(self, handle: JobHandle):
        """Process generator: the full Fig. 5 protocol for one handle."""
        timeline = handle.timeline
        if handle.delay_s > 0:
            yield self.env.timeout(handle.delay_s)
        timeline["submitted"] = self.env.now
        submission = yield from self.submit_interest(handle.request, unique=handle.unique)
        timeline["acknowledged"] = self.env.now
        handle._submission = submission
        outcome = JobOutcome(request=handle.request, submission=submission, timeline=timeline)
        handle._outcome = outcome
        if not submission.accepted:
            outcome.state = JobState.FAILED
            outcome.error = submission.error
            timeline["finished"] = self.env.now
            return outcome
        handle.job_id = submission.job_id

        if submission.cached and submission.result_name is not None:
            # Cache hit: the result already exists, skip straight to retrieval.
            outcome.state = JobState.COMPLETED
            outcome.from_cache = True
            outcome.result_name = submission.result_name
            handle._state = JobState.COMPLETED
            timeline["completed"] = self.env.now
        else:
            handle._state = JobState.PENDING
            try:
                final = yield from self.wait_for_completion(
                    submission.job_id or "",
                    status_name=submission.status_name,
                    _handle=handle,
                )
            except (InterestTimeout, InterestNacked, LIDCError) as exc:
                outcome.state = JobState.FAILED
                outcome.error = f"status tracking failed: {exc}"
                outcome.status_polls = handle.status_polls
                timeline["finished"] = self.env.now
                return outcome
            outcome.status_polls = int(final.get("_polls", 0))
            timeline["completed"] = self.env.now
            outcome.state = JobState(final.get("state", JobState.FAILED.value))
            outcome.from_cache = bool(final.get("from_cache", False))
            outcome.runtime_s = final.get("runtime_s")
            if outcome.state == JobState.FAILED:
                outcome.error = final.get("error", "job failed")
                timeline["finished"] = self.env.now
                return outcome
            if final.get("result_name"):
                outcome.result_name = Name(final["result_name"])
            outcome.result_size_bytes = final.get("result_size_bytes")

        if handle.fetch_result and outcome.result_name is not None:
            try:
                manifest, payload = yield from self.retrieve_result(outcome.result_name)
            except (InterestTimeout, InterestNacked) as exc:
                # The caller asked for the payload and cannot have it: the
                # workflow as a whole failed, even though the cluster-side job
                # completed (result_name/result_size_bytes stay for diagnosis).
                outcome.state = JobState.FAILED
                outcome.error = f"result retrieval failed: {exc}"
                timeline["finished"] = self.env.now
                return outcome
            outcome.result_size_bytes = manifest.get(
                "size_bytes", outcome.result_size_bytes
            )
            outcome.result_payload = payload
            timeline["result_retrieved"] = self.env.now
        timeline["finished"] = self.env.now
        return outcome

    # ------------------------------------------------------------------ status

    def poll_status(self, job_id: str, lifetime_s: float = LIFETIME_S,
                    status_name: Optional[Name] = None):
        """Process generator: one status exchange; returns the status payload dict.

        ``status_name`` is the name the gateway handed back in its ack (it
        alone decides where a job's status lives); without one the default
        :func:`~repro.core.naming.status_name` of ``job_id`` is used.
        """
        data = yield self.consumer.express_interest(
            status_name if status_name is not None else naming.status_name(job_id),
            lifetime=lifetime_s, must_be_fresh=True, retry_policy=self.retry_policy,
        )
        return json.loads(data.content_text())

    def wait_for_completion(self, job_id: str, status_name: Optional[Name] = None,
                            _handle: Optional[JobHandle] = None):
        """Process generator: track a job until it is terminal; returns the final payload.

        Every poll expresses ``status_name`` (see :meth:`poll_status`).

        Status Interests are re-expressed with exponential backoff: the first
        follow-up goes out after :data:`INITIAL_POLL_S`, and the interval
        doubles (:data:`POLL_BACKOFF`) up to :attr:`poll_interval_s`.  Short
        jobs are detected quickly without the client hammering the gateway
        for long ones.
        """
        cap = self.poll_interval_s
        interval = min(INITIAL_POLL_S, cap)
        polls = 0
        while True:
            # Long-lived status Interests: the lifetime grows with the backoff
            # interval so a slow gateway has the whole window to answer before
            # the exchange counts as a timeout.
            payload = yield from self.poll_status(
                job_id, lifetime_s=max(LIFETIME_S, interval), status_name=status_name)
            polls += 1
            state = JobState(payload.get("state", JobState.FAILED.value))
            if _handle is not None:
                _handle._state = state
                _handle._status_payload = payload
                _handle.status_polls = polls
            if state.is_terminal():
                payload["_polls"] = polls
                return payload
            if polls >= MAX_POLLS:
                raise LIDCError(f"job {job_id} still not terminal after {polls} polls")
            yield self.env.timeout(interval)
            interval = min(interval * POLL_BACKOFF, cap)

    # ------------------------------------------------------------------ results

    def retrieve_result(self, result_name: "Name | str", fetch_payload: bool = True):
        """Process generator: fetch a result's manifest (and payload when materialised).

        The manifest and every payload segment go out under the client's
        :attr:`retry_policy`.  Returns ``(manifest_dict, payload_bytes_or_None)``.
        """
        result_name = Name(result_name)
        manifest_data = yield self.consumer.express_interest(
            result_name, lifetime=LIFETIME_S, retry_policy=self.retry_policy,
        )
        manifest = json.loads(manifest_data.content_text())
        payload: Optional[bytes] = None
        if fetch_payload and manifest.get("has_payload"):
            payload = yield from self.consumer.fetch_segments(
                result_name, lifetime=LIFETIME_S, retry_policy=self.retry_policy
            )
        return manifest, payload

    def retrieve_dataset(self, dataset_id: str, fetch_payload: bool = True):
        """Process generator: retrieve a dataset from the data lake by id."""
        return (yield from self.retrieve_result(naming.data_name(dataset_id), fetch_payload))
