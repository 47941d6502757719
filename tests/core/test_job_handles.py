"""Tests for the session-based client API (JobHandle / submit_many)."""

import json

import pytest

from repro.core import naming
from repro.core.client import LIDCClient
from repro.core.framework import LIDCTestbed
from repro.core.spec import ComputeRequest, JobState
from repro.ndn.client import RetryPolicy
from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import Data, NackReason
from repro.sim.engine import Environment


def sleep_request(duration=30.0, cpu=1, memory_gb=1, **params):
    return ComputeRequest(app="SLEEP", cpu=cpu, memory_gb=memory_gb,
                          params={"duration": f"{duration:g}", **params})


class TestSingleHandle:
    def test_submit_returns_immediately_and_done_carries_the_outcome(self):
        testbed = LIDCTestbed.single_cluster(seed=1)
        client = testbed.client(poll_interval_s=5.0)
        handle = client.submit(sleep_request(20))
        # Nothing has run yet: the handle is a future, not a result.
        assert not handle.done.triggered
        assert handle.outcome.state == JobState.PENDING
        assert handle.outcome.submission is None
        outcome = testbed.run(until=handle.done)
        assert outcome is handle.outcome
        assert handle.done.triggered and outcome.succeeded
        assert outcome.state == JobState.COMPLETED
        assert outcome.submission.accepted is True
        assert outcome.submission.job_id.startswith("cluster-a-job-")
        assert outcome.runtime_s == pytest.approx(20.0, abs=1.0)

    def test_the_outcome_follows_the_gateway_while_the_job_runs(self):
        """The session keeps one record: mid-job, ``handle.outcome`` reads
        what the last status answer said, not a default."""
        testbed = LIDCTestbed.single_cluster(seed=0)
        client = testbed.client()
        handle = client.submit(sleep_request(120))
        gateway = testbed.cluster("cluster-a").gateway
        states, gateway_states, polls = [], [], []
        for at in (0.5, 5.0, 100.0):
            testbed.run(until=at)
            states.append(handle.outcome.state)
            gateway_states.append(gateway.tracker.get(handle.outcome.submission.job_id).state)
            polls.append(handle.outcome.status_polls)
        assert states == gateway_states == [JobState.PENDING, JobState.RUNNING, JobState.RUNNING]
        assert polls[0] < polls[1] < polls[2]
        assert not handle.done.triggered
        outcome = testbed.run(until=handle.done)
        assert outcome is handle.outcome and outcome.succeeded
        assert outcome.status_polls > polls[-1]

    def test_rejected_request_resolves_to_failed_outcome(self):
        testbed = LIDCTestbed.single_cluster(seed=3)
        client = testbed.client()
        handle = client.submit(
            ComputeRequest(app="BLAST", dataset="garbage", reference="HUMAN"))
        outcome = testbed.run(until=handle.done)
        assert not outcome.succeeded
        assert outcome.submission.accepted is False
        assert "malformed" in (outcome.error or "")

    def test_result_fetching_through_the_handle(self):
        testbed = LIDCTestbed.single_cluster(seed=4, load_synthetic_datasets=True)
        client = testbed.client(poll_interval_s=5.0)
        handle = client.submit(
            ComputeRequest(app="BLAST", cpu=1, memory_gb=1,
                           dataset="SRR0000001", reference="synthetic-reference"),
            fetch_result=True)
        outcome = testbed.run(until=handle.done)
        assert outcome.succeeded
        assert handle.outcome.result_payload is not None
        assert len(handle.outcome.result_payload) == outcome.result_size_bytes


class TestSessionRobustness:
    def test_result_retrieval_failure_fails_the_outcome(self):
        testbed = LIDCTestbed.single_cluster(seed=30, load_synthetic_datasets=True)
        client = testbed.client(poll_interval_s=5.0, retry_policy=RetryPolicy(max_retries=0))
        handle = client.submit(
            ComputeRequest(app="BLAST", cpu=1, memory_gb=1,
                           dataset="SRR0000001", reference="synthetic-reference"),
            fetch_result=True)
        # Once the request is acknowledged, make the data lake unreachable so
        # the session's result retrieval (after the job completes) fails.
        testbed.run(until=testbed.env.now + 1)
        assert handle.outcome.submission.accepted
        cluster = testbed.cluster("cluster-a")
        cluster.gateway_nfd.fib.remove_face(cluster._gw_to_dl.face_id)
        outcome = testbed.run(until=handle.done)
        assert not outcome.succeeded
        assert outcome.state == JobState.FAILED
        assert "result retrieval failed" in (outcome.error or "")
        assert outcome.result_payload is None

    def test_result_retrieval_follows_the_client_retry_policy(self, segment_all):
        # The result's first segment Interest is Congestion-Nacked once. The
        # client's policy retries Nacks, and it must govern the manifest and
        # every segment, as it does the submission and the status polls.
        env = Environment()
        edge = Forwarder(env, "edge", cs_capacity=0)
        result_name = naming.data_name("job-x-output")
        payload = b"alignment " * 2000
        segments = {packet.name: packet
                    for packet in segment_all(result_name, payload, segment_size=4096)}
        nacked = []

        def on_compute(interest):
            ack = {"accepted": True, "job_id": "job-x", "cluster": "stub", "cached": True,
                   "status_name": str(naming.status_name("job-x")),
                   "result_name": str(result_name)}
            return Data(name=interest.name, content=json.dumps(ack).encode())

        def on_data(interest):
            if interest.name == result_name:
                manifest = {"has_payload": True, "size_bytes": len(payload)}
                return Data(name=result_name, content=json.dumps(manifest).encode())
            if interest.name == result_name.append("seg=0") and not nacked:
                nacked.append(interest.name)
                return interest.nack(NackReason.CONGESTION)
            return segments[interest.name]

        edge.attach_producer(naming.COMPUTE_PREFIX, on_compute)
        edge.attach_producer(naming.DATA_PREFIX, on_data)
        client = LIDCClient(env, edge, retry_policy=RetryPolicy(retry_nacks=True))
        handle = client.submit(sleep_request(5), fetch_result=True)
        outcome = env.run(until=handle.done)
        assert nacked
        assert outcome.succeeded, outcome.error
        assert outcome.result_payload == payload

    def test_corrupt_status_payload_resolves_the_handle(self):
        # A hostile/broken producer on the status prefix answers with garbage;
        # the session must materialise the error instead of leaving
        # handle.done untriggered forever.
        testbed = LIDCTestbed.single_cluster(seed=31)
        client = testbed.client(poll_interval_s=5.0)
        edge = testbed.overlay.routers["client-edge"]

        def garbage(interest):
            return Data(name=interest.name, content=b"not json",
                        freshness_period=1.0)

        edge.attach_producer("/ndn/k8s/status", garbage)
        handle = client.submit(sleep_request(20))
        outcome = testbed.run(until=handle.done)
        assert handle.done.triggered
        assert outcome.state == JobState.FAILED
        assert "job session error" in (outcome.error or "")


class TestConcurrentHandles:
    def test_many_in_flight_jobs_complete_independently(self):
        testbed = LIDCTestbed.single_cluster(
            seed=6, node_count=2, node_cpu=8, node_memory="32Gi")
        client = testbed.client(poll_interval_s=5.0)
        # Reverse-sorted durations: the job submitted first finishes LAST, so
        # Data/NACK arrivals are out of submission order and must resolve the
        # right handle each time.
        durations = [80.0, 60.0, 40.0, 20.0, 10.0]
        handles = client.submit_many(
            [sleep_request(duration, idx=str(i)) for i, duration in enumerate(durations)])
        assert client.in_flight == len(durations)
        assert client.max_in_flight == len(durations)
        testbed.run(until=client.wait_all(handles))
        for handle, duration in zip(handles, durations):
            assert handle.outcome.succeeded
            assert handle.outcome.runtime_s == pytest.approx(duration, abs=1.0)
        # Shorter jobs were detected as complete before longer ones.
        completions = [handle.outcome.timeline["completed"] for handle in handles]
        assert completions == sorted(completions, reverse=True)
        # No leaked pending-Interest book-keeping on the shared Consumer.
        assert client.consumer.pending_count() == 0
        assert client.in_flight == 0

    def test_out_of_order_nack_fails_only_the_right_handle(self):
        # Two 5-CPU clusters (4.75 allocatable) fit two 2-CPU jobs each; the
        # fifth concurrent job is NACKed by every cluster while the first four
        # keep running.
        testbed = LIDCTestbed.multi_cluster(
            2, seed=7, node_count=1, node_cpu=5, node_memory="8Gi")
        client = testbed.client(poll_interval_s=5.0)
        handles = []
        for i in range(5):  # staggered by 0.5 s
            handles.append(client.submit(sleep_request(60, cpu=2, memory_gb=2, idx=str(i))))
            testbed.run(until=testbed.env.now + 0.5)
        testbed.run(until=client.wait_all(handles))
        succeeded = [handle for handle in handles if handle.outcome.succeeded]
        failed = [handle for handle in handles if not handle.outcome.succeeded]
        assert len(succeeded) == 4
        assert len(failed) == 1
        assert failed[0].outcome.submission.accepted is False
        assert client.consumer.pending_count() == 0

    def test_concurrent_makespan_beats_sequential(self):
        jobs, duration = 8, 60.0
        concurrent_bed = LIDCTestbed.single_cluster(
            seed=8, node_count=2, node_cpu=8, node_memory="32Gi")
        concurrent_client = concurrent_bed.client(poll_interval_s=5.0)
        concurrent = concurrent_client.submit_many(
            [sleep_request(duration, idx=str(i)) for i in range(jobs)])
        concurrent_bed.run(until=concurrent_client.wait_all(concurrent))
        concurrent_makespan = concurrent_bed.env.now
        assert all(handle.outcome.succeeded for handle in concurrent)

        sequential_bed = LIDCTestbed.single_cluster(
            seed=8, node_count=2, node_cpu=8, node_memory="32Gi")
        client = sequential_bed.client(poll_interval_s=5.0)
        for i in range(jobs):
            sequential_bed.submit_and_wait(sleep_request(duration, idx=str(i)),
                                           client=client, fetch_result=False)
        sequential_makespan = sequential_bed.env.now
        assert concurrent_makespan < sequential_makespan
        # The concurrent batch is bounded by the slowest job, not the sum.
        assert concurrent_makespan < 2 * duration

    def test_outcomes_come_back_in_submission_order(self):
        testbed = LIDCTestbed.single_cluster(
            seed=9, node_count=2, node_cpu=8, node_memory="32Gi")
        client = testbed.client(poll_interval_s=5.0)
        handles = client.submit_many(
            [sleep_request(duration, idx=str(i))
             for i, duration in enumerate([30.0, 10.0, 20.0])])
        testbed.run(until=client.wait_all(handles))
        outcomes = [handle.outcome for handle in handles]
        assert [outcome.runtime_s for outcome in outcomes] == [
            pytest.approx(30.0, abs=1.0), pytest.approx(10.0, abs=1.0),
            pytest.approx(20.0, abs=1.0)]

    def test_submission_to_empty_overlay_resolves_failed(self):
        testbed = LIDCTestbed(None)  # client edge only, no clusters
        client = testbed.client(retry_policy=RetryPolicy(max_retries=0))
        handles = client.submit_many([sleep_request(5, idx=str(i)) for i in range(3)])
        testbed.run(until=client.wait_all(handles))
        assert all(not handle.outcome.succeeded for handle in handles)
        assert client.consumer.pending_count() == 0


class TestWaitAll:
    def test_no_handles_resolve_without_advancing_the_clock(self):
        testbed = LIDCTestbed.single_cluster(seed=12)
        client = testbed.client()
        start = testbed.env.now
        waiter = client.wait_all([])
        testbed.run(until=waiter)
        assert waiter.triggered and waiter.ok
        assert testbed.env.now == start

    def test_waits_for_the_slowest_handle_past_an_early_failure(self):
        """A rejected job resolves its handle early with a failed outcome;
        that ends neither the wait nor the other sessions."""
        testbed = LIDCTestbed.single_cluster(seed=13)
        client = testbed.client(poll_interval_s=5.0)
        rejected, fast, slow = client.submit_many([
            ComputeRequest(app="BLAST", dataset="garbage", reference="HUMAN"),
            sleep_request(10, idx="fast"),
            sleep_request(40, idx="slow"),
        ])
        waiter = client.wait_all([rejected, fast, slow])
        testbed.run(until=rejected.done)
        assert not rejected.outcome.succeeded and not waiter.triggered
        testbed.run(until=fast.done)
        assert fast.outcome.succeeded and not slow.done.triggered and not waiter.triggered
        testbed.run(until=waiter)
        assert slow.outcome.succeeded
        assert testbed.env.now == slow.outcome.timeline["completed"]

    def test_finished_handles_resolve_at_once(self):
        testbed = LIDCTestbed.single_cluster(seed=14)
        client = testbed.client(poll_interval_s=5.0)
        handles = client.submit_many([sleep_request(15, idx=str(i)) for i in range(2)])
        testbed.run(until=client.wait_all(handles))
        finished_at = testbed.env.now
        testbed.run(until=client.wait_all(handles))
        assert testbed.env.now == finished_at


class TestBackoffStatusTracking:
    def test_short_jobs_detected_quickly_despite_large_cap(self):
        # The old fixed 30 s poll loop needed ~30 s to notice a 5 s job; the
        # exponential backoff starts at 1 s and finds it within a few seconds.
        testbed = LIDCTestbed.single_cluster(seed=10)
        client = testbed.client(poll_interval_s=30.0)
        handle = client.submit(sleep_request(5))
        outcome = testbed.run(until=handle.done)
        assert outcome.succeeded
        assert outcome.end_to_end_s < 20.0

    def test_long_jobs_poll_sparsely(self):
        testbed = LIDCTestbed.single_cluster(seed=11)
        client = testbed.client(poll_interval_s=600.0)
        handle = client.submit(
            ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                           dataset="SRR2931415", reference="HUMAN"))
        outcome = testbed.run(until=handle.done)
        assert outcome.succeeded
        # ~29,390 s of computation with a 600 s cap: far fewer polls than the
        # ~980 a fixed 30 s loop would have issued.
        assert outcome.status_polls < 100
        assert outcome.end_to_end_s < 31_000
