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
from repro.ndn.segmentation import segment_content
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
        assert not handle.finished
        assert handle.state == JobState.PENDING
        assert handle.accepted is None
        outcome = testbed.run(until=handle.done)
        assert outcome is handle.outcome
        assert handle.finished and handle.succeeded
        assert handle.state == JobState.COMPLETED
        assert handle.accepted is True
        assert handle.job_id and handle.job_id.startswith("cluster-a-job-")
        assert outcome.runtime_s == pytest.approx(20.0, abs=1.0)

    def test_status_reflects_progress_without_network_calls(self):
        testbed = LIDCTestbed.single_cluster(seed=2)
        client = testbed.client(poll_interval_s=5.0)
        handle = client.submit(sleep_request(50))
        testbed.run(until=testbed.env.now + 10)
        assert handle.status_polls > 0
        mid = handle.status()
        # The reply carried only the state; the job id and cluster come from the ack.
        assert handle._status_payload == {"state": mid["state"]}
        assert mid == {"state": mid["state"], "job_id": handle.job_id, "cluster": "cluster-a"}
        assert mid["state"] in ("Pending", "Running")
        testbed.run(until=handle.done)
        final = handle.status()
        assert final["state"] == "Completed"
        assert final["job_id"] == handle.job_id and final["cluster"] == "cluster-a"
        assert final["result_name"] == str(handle.outcome.result_name)
        assert final["runtime_s"] == pytest.approx(50.0, abs=1.0)

    def test_rejected_request_resolves_to_failed_outcome(self):
        testbed = LIDCTestbed.single_cluster(seed=3)
        client = testbed.client()
        handle = client.submit(
            ComputeRequest(app="BLAST", dataset="garbage", reference="HUMAN"))
        outcome = testbed.run(until=handle.done)
        assert not outcome.succeeded
        assert handle.accepted is False
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
        assert handle.result() is not None
        assert len(handle.result()) == outcome.result_size_bytes

    def test_cancel_resolves_the_handle_but_not_the_job(self):
        testbed = LIDCTestbed.single_cluster(seed=5)
        client = testbed.client(poll_interval_s=5.0)
        handle = client.submit(sleep_request(200))
        testbed.run(until=testbed.env.now + 20)
        assert handle.cancel()
        outcome = testbed.run(until=handle.done)
        assert handle.cancelled
        assert outcome.state == JobState.FAILED
        assert "cancelled" in (outcome.error or "")
        assert not handle.cancel()  # already finished → no-op
        # The computation itself keeps running on the cluster and completes.
        testbed.run(until=testbed.env.now + 300)
        record = testbed.cluster("cluster-a").gateway.tracker.get(handle.job_id)
        assert record.state == JobState.COMPLETED
        assert client.consumer.pending_count() == 0


class TestDeadline:
    def test_a_job_past_its_deadline_resolves_failed(self):
        testbed = LIDCTestbed.single_cluster(seed=1)
        client = testbed.client(poll_interval_s=5.0)
        handle = client.submit(sleep_request(600), deadline_s=50.0)
        outcome = testbed.run(until=handle.done)
        assert outcome.state == JobState.FAILED
        assert handle.deadline_exceeded and handle.cancelled
        assert "deadline of 50.0s exceeded" in outcome.error
        assert testbed.env.now == pytest.approx(50.0)

    def test_a_finished_job_leaves_no_deadline_on_the_schedule(self):
        """The deadline is disarmed when the session ends: draining the
        simulation afterwards stops with the last live timer, not at the
        deadline 1e6 s away."""
        testbed = LIDCTestbed.single_cluster(seed=1)
        client = testbed.client(poll_interval_s=5.0)
        handle = client.submit(sleep_request(30), deadline_s=1e6)
        outcome = testbed.run(until=handle.done)
        assert outcome.succeeded and not handle.deadline_exceeded
        finished = testbed.env.now
        testbed.env.run()
        assert testbed.env.now < finished + 100.0
        assert testbed.env.queue_size == 0


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
        assert handle.accepted
        cluster = testbed.cluster("cluster-a")
        cluster.gateway_nfd.fib.remove_face(cluster._gw_to_dl.face_id)
        outcome = testbed.run(until=handle.done)
        assert not outcome.succeeded
        assert handle.state == JobState.FAILED
        assert "result retrieval failed" in (outcome.error or "")
        assert handle.result() is None

    def test_result_retrieval_follows_the_client_retry_policy(self):
        # The result's first segment Interest is Congestion-Nacked once. The
        # client's policy retries Nacks, and it must govern the manifest and
        # every segment, as it does the submission and the status polls.
        env = Environment()
        edge = Forwarder(env, "edge", cs_capacity=0)
        result_name = naming.data_name("job-x-output")
        payload = b"alignment " * 2000
        segments = {packet.name: packet
                    for packet in segment_content(result_name, payload, segment_size=4096)}
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
        assert handle.finished
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
            assert handle.succeeded
            assert handle.outcome.runtime_s == pytest.approx(duration, abs=1.0)
        # Shorter jobs were detected as complete before longer ones.
        completions = [handle.timeline["completed"] for handle in handles]
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
        handles = client.submit_many(
            [sleep_request(60, cpu=2, memory_gb=2, idx=str(i)) for i in range(5)],
            stagger_s=0.5)
        testbed.run(until=client.wait_all(handles))
        succeeded = [handle for handle in handles if handle.succeeded]
        failed = [handle for handle in handles if not handle.succeeded]
        assert len(succeeded) == 4
        assert len(failed) == 1
        assert failed[0].accepted is False
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
        assert all(handle.succeeded for handle in concurrent)

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
        assert all(not handle.succeeded for handle in handles)
        assert client.consumer.pending_count() == 0


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
