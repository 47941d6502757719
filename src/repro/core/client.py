"""The LIDC client library: non-blocking job sessions over named Interests.

The client is what a workflow runs on its own machine: it expresses compute
Interests, receives the acknowledgement with the job id, tracks the status
name that acknowledgement hands back (``/ndn/k8s/status/<cluster>/<n>``), and
finally retrieves the result from the data lake by name (paper Fig. 5).  The
client never learns which cluster executed the job unless it inspects the
acknowledgement — that is the point.

:meth:`LIDCClient.submit` returns a :class:`JobHandle` immediately: a future
for one computation whose lifecycle (submit → ack → status tracking → result
retrieval) is driven by a background simulation process.  The session keeps
one record, the handle's :class:`JobOutcome`: it reads ``Pending`` from
submission, follows every status answer, and is what ``handle.done``
triggers with once the job is terminal.  Many handles can be
in flight on one client at once — :meth:`LIDCClient.submit_many` drives N
concurrent jobs through a single :class:`~repro.ndn.client.Consumer` — and
status is tracked with long-lived status Interests whose re-expression
interval backs off exponentially (instead of the old fixed 30 s poll loop).
A session ends by its protocol alone: each exchange is bounded by its
Interest lifetime and the client's retry policy, and status tracking by
:data:`MAX_POLLS`, so nothing outside the protocol has to stop it.

Synchronous call sites use::

    handle = client.submit(request)
    outcome = env.run(until=handle.done)   # the same object as handle.outcome

and process generators use::

    outcome = yield client.submit(request).done
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core import naming
from repro.core.spec import ComputeRequest, JobState
from repro.exceptions import InterestNacked, InterestTimeout, LIDCError
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.sim.engine import Environment, Event

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


@dataclass
class JobOutcome:
    """The one record of a job session, live from submission.

    The session updates it in place as the protocol advances: ``state``
    starts ``Pending`` and follows every status answer, ``submission`` is
    None until the ack (and stays None when the session dies before one),
    and ``timeline`` gains a named timestamp per protocol step.
    """

    request: ComputeRequest
    submission: Optional[SubmissionResult] = None
    state: JobState = JobState.PENDING
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
    drives the whole protocol and writes its progress into ``outcome``.
    ``done`` is a simulation event that triggers with that same
    :class:`JobOutcome` once the job is terminal (it never fails — errors
    are materialised in the outcome), so handles compose with
    :meth:`LIDCClient.wait_all` and ``env.run(until=...)``.
    """

    def __init__(self, request: ComputeRequest, done: Event, unique: bool = True,
                 fetch_result: bool = False) -> None:
        self.request = request
        self.done = done
        self.unique = unique
        self.fetch_result = fetch_result
        self.outcome = JobOutcome(request=request)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobHandle {self.request.app} state={self.outcome.state.value}>"


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
        self.submissions += 1
        try:
            data = yield self.consumer.express_interest(
                name, lifetime=LIFETIME_S, must_be_fresh=True,
                retry_policy=self.retry_policy,
            )
        except (InterestTimeout, InterestNacked) as exc:
            return SubmissionResult(accepted=False, error=str(exc))
        payload = json.loads(data.content_text())
        if not payload.get("accepted", False):
            return SubmissionResult(accepted=False, error=payload.get("error", "rejected"))
        return SubmissionResult(
            accepted=True,
            job_id=payload["job_id"],
            status_name=Name(payload["status_name"]),
            cluster=payload.get("cluster"),
            cached=bool(payload.get("cached", False)),
            result_name=Name(payload["result_name"]) if payload.get("result_name") else None,
        )

    def submit(
        self,
        request: ComputeRequest,
        unique: bool = True,
        fetch_result: bool = False,
    ) -> JobHandle:
        """Submit a computation and return a :class:`JobHandle` immediately.

        The handle's lifecycle runs as a background process; the calling
        code decides when (and whether) to wait on ``handle.done``.  The
        session ends by its protocol: every exchange is bounded by its
        Interest lifetime and :attr:`retry_policy`, and status tracking by
        :data:`MAX_POLLS`, so ``handle.done`` always triggers.
        """
        handle = JobHandle(request, done=self.env.event(name=f"job:{request.app}"),
                           unique=unique, fetch_result=fetch_result)
        self._in_flight.add(handle)
        self.max_in_flight = max(self.max_in_flight, len(self._in_flight))
        self.env.process(self._drive(handle), name=f"job-session:{request.app}")
        return handle

    def submit_many(
        self,
        requests: Sequence[ComputeRequest],
        fetch_result: bool = False,
    ) -> list[JobHandle]:
        """Submit N computations at once through this client's one Consumer."""
        return [self.submit(request, fetch_result=fetch_result) for request in requests]

    def wait_all(self, handles: Iterable[JobHandle]) -> Event:
        """An event triggering when every handle is terminal."""
        done = [handle.done for handle in handles]

        def wait():
            for event in done:
                yield event

        return self.env.process(wait(), name="wait_all")

    @property
    def in_flight(self) -> int:
        """Number of job sessions currently being driven."""
        return len(self._in_flight)

    # ------------------------------------------------------------------ session driver

    def _drive(self, handle: JobHandle):
        """Background process running one handle's full protocol."""
        try:
            yield from self._lifecycle(handle)
        except Exception as exc:  # lint: allow[RL004] handle.done must always trigger; any session error becomes a FAILED outcome
            # Unexpected errors (corrupt status payloads, non-gateway
            # producers, ...) are materialised into a FAILED outcome so
            # waiters never hang on an event that cannot trigger.
            self._fail(handle.outcome, f"job session error: {exc!r}")
        finally:
            self._in_flight.discard(handle)
        handle.done.succeed(handle.outcome)

    def _fail(self, outcome: JobOutcome, reason: Optional[str]) -> None:
        outcome.state = JobState.FAILED
        outcome.error = reason
        outcome.timeline.setdefault("finished", self.env.now)

    def _lifecycle(self, handle: JobHandle):
        """Process generator: the full Fig. 5 protocol for one handle."""
        outcome = handle.outcome
        timeline = outcome.timeline
        timeline["submitted"] = self.env.now
        submission = yield from self.submit_interest(handle.request, unique=handle.unique)
        timeline["acknowledged"] = self.env.now
        outcome.submission = submission
        if not submission.accepted:
            self._fail(outcome, submission.error)
            return

        if submission.cached and submission.result_name is not None:
            # Cache hit: the result already exists, skip straight to retrieval.
            outcome.state = JobState.COMPLETED
            outcome.from_cache = True
            outcome.result_name = submission.result_name
            timeline["completed"] = self.env.now
        else:
            try:
                final = yield from self._track(outcome)
            except (InterestTimeout, InterestNacked, LIDCError) as exc:
                self._fail(outcome, f"status tracking failed: {exc}")
                return
            timeline["completed"] = self.env.now
            outcome.from_cache = bool(final.get("from_cache", False))
            outcome.runtime_s = final.get("runtime_s")
            if outcome.state == JobState.FAILED:
                self._fail(outcome, final.get("error", "job failed"))
                return
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
                self._fail(outcome, f"result retrieval failed: {exc}")
                return
            outcome.result_size_bytes = manifest.get(
                "size_bytes", outcome.result_size_bytes
            )
            outcome.result_payload = payload
            timeline["result_retrieved"] = self.env.now
        timeline["finished"] = self.env.now

    # ------------------------------------------------------------------ status

    def poll_status(self, status_name: Name, lifetime_s: float = LIFETIME_S):
        """Process generator: one status exchange; returns the status payload dict.

        ``status_name`` is the name the gateway handed back in its ack: it
        alone decides where a job's status lives.
        """
        data = yield self.consumer.express_interest(
            status_name, lifetime=lifetime_s, must_be_fresh=True,
            retry_policy=self.retry_policy,
        )
        return json.loads(data.content_text())

    def _track(self, outcome: JobOutcome):
        """Process generator: track a job until it is terminal; returns the final payload.

        Every answer updates ``outcome.state`` and ``outcome.status_polls``
        in place, and every poll expresses the status name from the ack.

        Status Interests are re-expressed with exponential backoff: the first
        follow-up goes out after :data:`INITIAL_POLL_S`, and the interval
        doubles (:data:`POLL_BACKOFF`) up to :attr:`poll_interval_s`.  Short
        jobs are detected quickly without the client hammering the gateway
        for long ones.
        """
        submission = outcome.submission
        cap = self.poll_interval_s
        interval = min(INITIAL_POLL_S, cap)
        while True:
            # Long-lived status Interests: the lifetime grows with the backoff
            # interval so a slow gateway has the whole window to answer before
            # the exchange counts as a timeout.
            payload = yield from self.poll_status(
                submission.status_name, lifetime_s=max(LIFETIME_S, interval))
            outcome.status_polls += 1
            outcome.state = JobState(payload.get("state", JobState.FAILED.value))
            if outcome.state.is_terminal():
                return payload
            if outcome.status_polls >= MAX_POLLS:
                raise LIDCError(f"job {submission.job_id} still not terminal"
                                f" after {outcome.status_polls} polls")
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
