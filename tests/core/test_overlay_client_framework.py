"""Tests for the overlay, client library, workflows, placement, baseline and testbed."""

import json
from collections import Counter

import pytest

from repro.core import naming
from repro.core.baseline import CentralizedController, ControllerUnavailable
from repro.core.client import LIDCClient
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.overlay import ComputeOverlay
from repro.core.placement import (
    LearnedPlacement,
    LeastLoadedPlacement,
    NearestPlacement,
    RandomPlacement,
    RoundRobinPlacement,
    place_or_raise,
    request_quantity,
)
from repro.core.predictor import CompletionTimePredictor
from repro.core.spec import ComputeRequest, JobState
from repro.core.workflow import GenomicsWorkflow, decompose
from repro.exceptions import LIDCError, OverlayError, PlacementError
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, NackReason
from repro.ndn.strategy import BestRouteStrategy, LoadBalanceStrategy
from repro.sim.engine import Environment


def sleep_request(duration=30.0, cpu=1, memory_gb=1, **params):
    return ComputeRequest(app="SLEEP", cpu=cpu, memory_gb=memory_gb,
                          params={"duration": f"{duration:g}", **params})


class TestOverlayMembership:
    def test_duplicate_names_rejected(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        with pytest.raises(OverlayError):
            testbed.overlay.add_access_router(CLIENT_EDGE)
        with pytest.raises(OverlayError):
            testbed.overlay.add_cluster(testbed.cluster("cluster-a"))

    def test_connect_validations(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=0)
        with pytest.raises(OverlayError):
            testbed.overlay.connect("cluster-a", "cluster-a")
        with pytest.raises(OverlayError):
            testbed.overlay.connect(CLIENT_EDGE, "cluster-a")  # already connected
        with pytest.raises(OverlayError):
            testbed.overlay.connect("cluster-a", "ghost")

    def test_compute_prefix_visible_from_client_edge(self):
        testbed = LIDCTestbed.multi_cluster(3, seed=0)
        origins = testbed.overlay.reachable_compute_origins(CLIENT_EDGE)
        assert origins == ["cluster-a", "cluster-b", "cluster-c"]

    def test_remove_cluster_withdraws_routes(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=0)
        testbed.overlay.remove_cluster("cluster-a")
        assert testbed.overlay.reachable_compute_origins(CLIENT_EDGE) == ["cluster-b"]
        with pytest.raises(OverlayError):
            testbed.overlay.remove_cluster("cluster-a")

    def test_node_names_and_links(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=0)
        assert set(testbed.overlay.node_names()) == {CLIENT_EDGE, "cluster-a", "cluster-b"}
        assert len(testbed.overlay.links()) == 2

    def test_unknown_client_router_raises(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        with pytest.raises(OverlayError):
            testbed.overlay.client("nonexistent-router")


class TestClientWorkflow:
    def test_single_cluster_blast_workflow(self):
        testbed = LIDCTestbed.single_cluster(seed=1)
        report = testbed.run_blast("SRR2931415", cpu=2, memory_gb=4)
        outcome = report.outcome
        assert outcome.succeeded
        assert outcome.submission.cluster == "cluster-a"
        assert outcome.runtime_s == pytest.approx(29390.0, rel=0.01)
        assert outcome.result_size_bytes == 941_000_000
        assert outcome.status_polls > 0
        # Fig. 5 shape: the computation step dominates.
        compute_step = report.step("computation_and_status")
        assert compute_step.fraction > 0.99

    def test_rejected_request_fails_fast(self):
        testbed = LIDCTestbed.single_cluster(seed=1)
        outcome = testbed.submit_and_wait(
            ComputeRequest(app="BLAST", dataset="garbage", reference="HUMAN"))
        assert not outcome.succeeded
        assert outcome.state == JobState.FAILED
        assert "malformed" in (outcome.error or "")

    def test_submission_to_empty_overlay_fails_with_no_route(self):
        testbed = LIDCTestbed(None)  # client edge only, no clusters
        outcome = testbed.submit_and_wait(sleep_request(), client=testbed.client())
        assert not outcome.succeeded
        assert "nacked" in (outcome.error or "").lower() or "timed out" in (outcome.error or "")

    def test_result_payload_fetched_for_materialised_results(self):
        testbed = LIDCTestbed.single_cluster(seed=2, load_synthetic_datasets=True)
        outcome = testbed.submit_and_wait(
            ComputeRequest(app="BLAST", cpu=1, memory_gb=1,
                           dataset="SRR0000001", reference="synthetic-reference"),
            poll_interval_s=5.0)
        assert outcome.succeeded
        assert outcome.result_payload is not None
        assert len(outcome.result_payload) == outcome.result_size_bytes

    def test_dataset_retrieval_by_name(self):
        testbed = LIDCTestbed.single_cluster(seed=3, load_synthetic_datasets=True)
        client = testbed.client()

        def fetch():
            manifest, payload = yield from client.retrieve_dataset("synthetic-reference")
            return manifest, payload

        manifest, payload = testbed.run_process(fetch())
        assert manifest["dataset_id"] == "synthetic-reference"
        assert payload is not None and payload.startswith(b">")

    def test_campaign_aggregation(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=4)
        workflow = GenomicsWorkflow(testbed.client(poll_interval_s=10.0), fetch_results=False)
        requests = [sleep_request(20, idx=str(i)) for i in range(4)]
        campaign = testbed.run_process(workflow.run_campaign(requests, inter_arrival_s=1.0))
        assert campaign.completed == 4
        assert campaign.failed == 0
        assert campaign.mean_end_to_end_s() > 20
        assert sum(campaign.clusters_used().values()) == 4

    def test_decompose_handles_missing_steps(self):
        testbed = LIDCTestbed.single_cluster(seed=5)
        outcome = testbed.submit_and_wait(
            ComputeRequest(app="BLAST", dataset="bad-id", reference="HUMAN"))
        steps = decompose(outcome)
        assert len(steps) == 3


class TestMultiClusterBehaviour:
    def test_load_spreads_when_first_cluster_fills(self):
        # Each cluster has one 4-CPU node, so it fits exactly one 2-CPU job at
        # a time; the second concurrent job must overflow to the other cluster
        # via a capacity NACK and forwarding-plane retry.
        testbed = LIDCTestbed.multi_cluster(2, seed=6, node_count=1, node_cpu=4, node_memory="8Gi")
        client = testbed.client(poll_interval_s=10.0)

        def submit_all_quickly():
            submissions = []
            for index in range(2):
                submission = yield from client.submit_interest(
                    sleep_request(300, cpu=2, memory_gb=2, idx=str(index)))
                submissions.append(submission)
            return submissions

        submissions = testbed.run_process(submit_all_quickly())
        clusters = Counter(s.cluster for s in submissions if s.accepted)
        assert all(s.accepted for s in submissions)
        assert len(clusters) == 2  # both clusters ended up hosting jobs

    def test_overflow_beyond_total_capacity_is_rejected(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=6, node_count=1, node_cpu=4, node_memory="8Gi")
        client = testbed.client(poll_interval_s=10.0)

        def submit_all_quickly():
            submissions = []
            for index in range(3):
                submission = yield from client.submit_interest(
                    sleep_request(300, cpu=2, memory_gb=2, idx=str(index)))
                submissions.append(submission)
            return submissions

        submissions = testbed.run_process(submit_all_quickly())
        accepted = [s for s in submissions if s.accepted]
        rejected = [s for s in submissions if not s.accepted]
        assert len(accepted) == 2
        assert len(rejected) == 1  # no cluster could fit the third concurrent job

    def test_cluster_failure_redirects_to_survivor(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=7)
        client = testbed.client(poll_interval_s=10.0)
        first = testbed.run_process(client.run_workflow(sleep_request(10), fetch_result=False))
        assert first.succeeded
        victim = first.submission.cluster
        testbed.overlay.fail_cluster(victim)
        second = testbed.run_process(client.run_workflow(sleep_request(10), fetch_result=False))
        assert second.succeeded
        assert second.submission.cluster != victim

    def test_new_cluster_used_without_client_changes(self):
        testbed = LIDCTestbed.single_cluster(seed=8, node_count=1, node_cpu=4, node_memory="8Gi")
        client = testbed.client(poll_interval_s=10.0)

        def fill_and_overflow():
            # Fill cluster-a, then the third request only fits on the new cluster.
            submissions = []
            for index in range(2):
                submissions.append((yield from client.submit_interest(
                    sleep_request(500, cpu=2, memory_gb=2, idx=str(index)))))
            return submissions

        testbed.run_process(fill_and_overflow())
        new_cluster = testbed.add_cluster(name="cluster-late")
        overflow = testbed.run_process(
            client.submit_interest(sleep_request(500, cpu=2, memory_gb=2, idx="x")))
        assert overflow.accepted
        assert overflow.cluster == new_cluster.name

    def test_compute_strategy_sets_the_placement_spread(self):
        """The access routers' strategy for /ndn/k8s/compute decides where work lands."""

        def placements(strategy) -> Counter:
            # 16-CPU nodes at 5/30/80 ms: seven 2-CPU jobs fit on cluster-a.
            testbed = LIDCTestbed.multi_cluster(
                3, seed=0, node_count=1, node_cpu=16, node_memory="64Gi",
                latencies_s=[0.005, 0.03, 0.08])
            testbed.overlay.set_compute_strategy(strategy)
            client = testbed.client(poll_interval_s=10.0)

            def submit_all():
                submissions = []
                for index in range(9):
                    submissions.append((yield from client.submit_interest(
                        sleep_request(300, cpu=2, memory_gb=2, idx=str(index)))))
                return submissions

            submissions = testbed.run_process(submit_all())
            assert all(s.accepted for s in submissions)
            return Counter(s.cluster for s in submissions)

        # Best-route fills the nearest cluster, then spills over by Nack retry.
        best_route = placements(BestRouteStrategy())
        assert best_route.most_common(1)[0][0] == "cluster-a"
        assert best_route["cluster-a"] >= 7
        # Round-robin uses every cluster evenly.
        round_robin = placements(LoadBalanceStrategy(weighted=False))
        assert len(round_robin) == 3
        assert max(round_robin.values()) - min(round_robin.values()) <= 1
        # Weighted load balancing still reaches more than one cluster.
        assert len(placements(LoadBalanceStrategy(weighted=True))) >= 2


def status_counter(testbed, key):
    return sum(
        cluster.gateway.metrics.counter(key).value for cluster in testbed.clusters.values()
    )


class TestStatusPollsReachTheOwner:
    """A status poll goes to the cluster that owns the job (ROADMAP item 6)."""

    def _job_on_the_farthest_cluster(self, best_route=False):
        # One 2-CPU slot per cluster: two fillers occupy cluster-a and
        # cluster-b (acks only, never polled), so the tracked job lands on
        # cluster-c, the last hop of every best-route walk.
        testbed = LIDCTestbed.multi_cluster(
            3, seed=6, latencies_s=[0.01, 0.02, 0.03],
            node_count=1, node_cpu=4, node_memory="8Gi",
        )
        if best_route:  # what every access router did before owner affinity
            testbed.overlay.routers[CLIENT_EDGE].set_strategy(
                naming.STATUS_PREFIX, BestRouteStrategy())
        client = testbed.client(poll_interval_s=10.0)

        def fill():
            for index in range(2):
                yield from client.submit_interest(
                    sleep_request(600, cpu=2, memory_gb=2, idx=str(index)))

        testbed.run_process(fill())
        outcome = testbed.run_process(client.run_workflow(
            sleep_request(60, cpu=2, memory_gb=2, idx="tracked"), fetch_result=False))
        return testbed, outcome

    def test_access_routers_steer_status_names_and_nothing_else(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=0)
        strategies = testbed.overlay.routers[CLIENT_EDGE].strategies
        assert strategies.find(naming.status_name("j")).name == "owner-affinity"
        for prefix in (naming.COMPUTE_PREFIX, naming.DATA_PREFIX):
            assert strategies.find(Name(prefix).append("x")).name == "best-route"
        gateway = testbed.cluster("cluster-a").gateway_nfd.strategies
        assert gateway.find(naming.status_name("j")).name == "best-route"

    def test_a_job_on_the_farthest_cluster_is_found_by_its_first_poll_only(self):
        testbed, outcome = self._job_on_the_farthest_cluster()
        assert outcome.succeeded
        assert outcome.submission.cluster == "cluster-c"
        assert outcome.status_polls >= 8
        # Two wrong clusters on the first poll, none on any later one.
        assert status_counter(testbed, "status_unknown_job") <= 2
        baseline, before = self._job_on_the_farthest_cluster(best_route=True)
        assert before.submission.cluster == "cluster-c"
        assert before.status_polls == outcome.status_polls
        assert before.runtime_s == outcome.runtime_s
        # Best-route re-walks both wrong clusters on every poll that leaves the edge.
        owner_polls = testbed.cluster("cluster-c").gateway.metrics.counter(
            "status_interests").value
        assert status_counter(baseline, "status_unknown_job") == 2 * owner_polls
        assert status_counter(testbed, "status_interests") == owner_polls + 2


class TestClientPollsTheAckedStatusName:
    """The gateway decides where a job's status lives; the client follows."""

    def _stub_gateway(self, status_name):
        env = Environment()
        edge = Forwarder(env, "edge", cs_capacity=0)
        polled = []

        def on_compute(interest):
            ack = {"accepted": True, "job_id": "job-x", "cluster": "stub",
                   "status_name": status_name}
            return Data(name=interest.name, content=json.dumps(ack).encode()).sign()

        def on_status(interest):
            polled.append(str(interest.name))
            if str(interest.name) != status_name:
                return interest.nack(NackReason.NO_ROUTE)
            state = JobState.COMPLETED if len(polled) >= 3 else JobState.RUNNING
            payload = {"job_id": "job-x", "state": state.value}
            return Data(name=interest.name, content=json.dumps(payload).encode()).sign()

        edge.attach_producer(naming.COMPUTE_PREFIX, on_compute)
        edge.attach_producer(naming.STATUS_PREFIX, on_status)
        return env, LIDCClient(env, edge), polled

    def test_every_poll_expresses_the_name_from_the_ack(self):
        acked = "/ndn/k8s/status/site-7/job-x"
        env, client, polled = self._stub_gateway(acked)
        handle = client.submit(sleep_request(10), fetch_result=False)
        outcome = env.run(until=handle.done)
        assert outcome.succeeded, outcome.error
        assert outcome.submission.status_name == Name(acked)
        assert polled == [acked] * 3
        assert outcome.status_polls == 3

    def test_direct_callers_still_get_the_default_name(self):
        default = str(naming.status_name("job-x"))
        env, client, polled = self._stub_gateway(default)
        payload = env.run_process(client.poll_status("job-x"))
        assert payload["state"] == JobState.RUNNING.value
        final = env.run_process(client.wait_for_completion("job-x"))
        assert final["state"] == JobState.COMPLETED.value
        assert polled == [default] * 3


class TestPlacementStrategies:
    def _clusters(self, seed=0):
        testbed = LIDCTestbed(None)
        testbed.add_cluster(name="small", node_cpu=4, node_memory="8Gi")
        testbed.add_cluster(name="large", node_cpu=16, node_memory="64Gi")
        return testbed, list(testbed.clusters.values())

    def test_request_quantity_conversion(self):
        quantity = request_quantity(ComputeRequest(app="X", cpu=2, memory_gb=4))
        assert quantity.cpu == 2
        assert quantity.memory == 4 * 1024**3

    def test_random_and_round_robin_pick_feasible(self):
        testbed, clusters = self._clusters()
        request = ComputeRequest(app="SLEEP", cpu=2, memory_gb=2)
        assert RandomPlacement().select(request, clusters).cluster_name in {"small", "large"}
        round_robin = RoundRobinPlacement()
        picks = [round_robin.select(request, clusters).cluster_name for _ in range(4)]
        assert picks == ["large", "small", "large", "small"]

    def test_only_large_cluster_fits_big_request(self):
        testbed, clusters = self._clusters()
        big = ComputeRequest(app="SLEEP", cpu=8, memory_gb=32)
        for strategy in (RandomPlacement(), RoundRobinPlacement(), LeastLoadedPlacement()):
            assert strategy.select(big, clusters).cluster_name == "large"

    def test_nearest_prefers_low_latency(self):
        testbed, clusters = self._clusters()
        strategy = NearestPlacement({"small": 0.001, "large": 0.1})
        assert strategy.select(ComputeRequest(app="SLEEP", cpu=1, memory_gb=1),
                               clusters).cluster_name == "small"

    def test_least_loaded_counts_active_jobs(self):
        testbed, clusters = self._clusters()
        small = testbed.cluster("small")
        small.gateway.submit_local(ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                                                  params={"duration": "1000"}))
        decision = LeastLoadedPlacement().select(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1), clusters)
        assert decision.cluster_name == "large"

    def test_learned_falls_back_then_uses_predictions(self):
        testbed, clusters = self._clusters()
        predictor = CompletionTimePredictor(min_examples=1)
        strategy = LearnedPlacement(predictor)
        request = ComputeRequest(app="SLEEP", cpu=1, memory_gb=1)
        fallback = strategy.select(request, clusters)
        assert "fell back" in fallback.reason
        predictor.observe(request, 100.0)
        informed = strategy.select(request, clusters)
        assert "predicted" in informed.reason

    def test_place_or_raise(self):
        testbed, clusters = self._clusters()
        impossible = ComputeRequest(app="SLEEP", cpu=512, memory_gb=1024)
        # The fallback returns every cluster, so even "impossible" requests place;
        # an empty cluster list is the genuinely unplaceable case.
        with pytest.raises(PlacementError):
            place_or_raise(LeastLoadedPlacement(), impossible, [])


class TestCentralizedBaseline:
    def test_placement_and_completion(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=9)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()),
                                           strategy=LeastLoadedPlacement())
        submission = controller.submit(sleep_request(20))
        assert submission.accepted
        cluster = testbed.cluster(submission.decision.cluster_name)
        testbed.run(until=cluster.cluster.job(submission.record.k8s_job_name).completion)
        assert submission.record.state == JobState.COMPLETED
        assert controller.stats()["accepted"] == 1

    def test_controller_failure_blocks_all_submissions(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=10)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        controller.fail()
        with pytest.raises(ControllerUnavailable):
            controller.submit(sleep_request(5))
        recorded = controller.try_submit(sleep_request(5))
        assert not recorded.accepted
        controller.recover()
        assert controller.submit(sleep_request(5)).accepted

    def test_requires_manual_cluster_registration(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=11)
        clusters = list(testbed.clusters.values())
        controller = CentralizedController(testbed.env, clusters=clusters[:1])
        assert [c.name for c in controller.clusters()] == [clusters[0].name]
        controller.register_cluster(clusters[1])
        assert len(controller.clusters()) == 2
        controller.deregister_cluster(clusters[0].name)
        assert len(controller.clusters()) == 1

    def test_validation_error_recorded_not_raised(self):
        testbed = LIDCTestbed.single_cluster(seed=12)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        submission = controller.submit(ComputeRequest(app="BLAST", dataset="junk", reference="H"))
        assert not submission.accepted
        assert "malformed" in submission.error


class TestTestbedBuilder:
    def test_single_cluster_shape(self):
        testbed = LIDCTestbed.single_cluster(seed=13)
        assert list(testbed.clusters) == ["cluster-a"]
        assert testbed.cluster("cluster-a").spec.node_count == 1
        with pytest.raises(LIDCError):
            testbed.cluster("missing")

    def test_multi_cluster_star_and_chain(self):
        star = LIDCTestbed.multi_cluster(3, seed=14, topology="star")
        assert len(star.clusters) == 3
        chain = LIDCTestbed.multi_cluster(2, seed=15, topology="chain")
        assert len(chain.clusters) == 2
        with pytest.raises(LIDCError):
            LIDCTestbed.multi_cluster(0)
        with pytest.raises(LIDCError):
            LIDCTestbed.multi_cluster(2, topology="ring")

    def test_cluster_regions_assigned_round_robin(self):
        testbed = LIDCTestbed.multi_cluster(3, seed=16)
        regions = [cluster.spec.region for cluster in testbed.clusters.values()]
        assert len(set(regions)) == 3

    def test_stats_shape(self):
        testbed = LIDCTestbed.single_cluster(seed=17)
        stats = testbed.stats()
        assert "clusters" in stats and "overlay" in stats
