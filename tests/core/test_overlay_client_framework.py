"""Tests for the overlay, client library, workflows, centralized baseline and testbed."""

import json
from collections import Counter

import pytest

from repro.core import naming
from repro.core.baseline import CentralizedController
from repro.core.client import LIDCClient
from repro.core import framework
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.overlay import ComputeOverlay
from repro.core.spec import ComputeRequest, JobState
from repro.core.workflow import GenomicsWorkflow, decompose
from repro.exceptions import ControllerUnavailable, LIDCError, OverlayError
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
        workflow = GenomicsWorkflow(testbed.client())
        report = testbed.run_process(workflow.blast("SRR2931415", cpu=2, memory_gb=4))
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
            client=testbed.client(poll_interval_s=5.0))
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
        first = testbed.run(until=client.submit(sleep_request(10), fetch_result=False).done)
        assert first.succeeded
        victim = first.submission.cluster
        testbed.overlay.fail_cluster(victim)
        second = testbed.run(until=client.submit(sleep_request(10), fetch_result=False).done)
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

    @pytest.mark.parametrize("choose, expected", [
        (ComputeOverlay.use_load_balancing, LoadBalanceStrategy),
        (ComputeOverlay.use_nearest_cluster, BestRouteStrategy),
    ])
    def test_compute_strategy_is_set_on_every_access_router_only(self, choose, expected):
        testbed = LIDCTestbed.multi_cluster(2, seed=0)
        testbed.overlay.add_access_router("edge-2")
        choose(testbed.overlay)
        for router in testbed.overlay.routers.values():
            assert type(router.strategies.find(naming.COMPUTE_PREFIX)) is expected
        # Cluster gateways keep best-route, so a request is served where it lands.
        for cluster in testbed.clusters.values():
            strategy = cluster.gateway_nfd.strategies.find(naming.COMPUTE_PREFIX)
            assert type(strategy) is BestRouteStrategy

    def test_compute_strategy_sets_the_placement_spread(self, star_testbed):
        """The access routers' strategy for /ndn/k8s/compute decides where work lands."""

        def placements(strategy) -> Counter:
            # 16-CPU nodes at 5/30/80 ms: seven 2-CPU jobs fit on cluster-a.
            testbed = star_testbed([0.005, 0.03, 0.08], seed=0,
                                   node_count=1, node_cpu=16, node_memory="64Gi")
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
        round_robin = placements(LoadBalanceStrategy())
        assert len(round_robin) == 3
        assert max(round_robin.values()) - min(round_robin.values()) <= 1


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
        testbed = LIDCTestbed(framework.TestbedConfig(
            seed=6, node_count=1, node_cpu=4, node_memory="8Gi"))
        for latency in (0.01, 0.02, 0.03):
            testbed.add_cluster(latency_s=latency)
        if best_route:  # what every access router did before owner affinity
            testbed.overlay.routers[CLIENT_EDGE].set_strategy(
                naming.STATUS_PREFIX, BestRouteStrategy())
        client = testbed.client(poll_interval_s=10.0)

        def fill():
            for index in range(2):
                yield from client.submit_interest(
                    sleep_request(600, cpu=2, memory_gb=2, idx=str(index)))

        testbed.run_process(fill())
        outcome = testbed.run(until=client.submit(
            sleep_request(60, cpu=2, memory_gb=2, idx="tracked"), fetch_result=False).done)
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


    @pytest.mark.parametrize("jobs", [1, 10])
    def test_the_owner_is_learned_once_per_cluster_not_once_per_job(self, jobs):
        """``jobs`` jobs on the farthest cluster cost the edge one discovery
        walk in all: status names carry the owning cluster, and the edge
        remembers the owner per cluster (a memory per job would pay
        ``2 * jobs`` wrong asks)."""
        testbed = LIDCTestbed(framework.TestbedConfig(seed=6, node_count=1, node_memory="64Gi"))
        for name, latency, cpu in (("cluster-a", 0.01, 4), ("cluster-b", 0.02, 4),
                                   ("cluster-c", 0.03, 64)):
            testbed.add_cluster(name=name, latency_s=latency, node_cpu=cpu)
        client = testbed.client(poll_interval_s=10.0)

        def fill():  # one 2-CPU slot each on cluster-a and cluster-b, never polled
            for index in range(2):
                yield from client.submit_interest(
                    sleep_request(600, cpu=2, memory_gb=2, idx=str(index)))

        testbed.run_process(fill())
        handles = []
        for index in range(jobs):  # staggered by 1 s
            handles.append(client.submit(
                sleep_request(60, cpu=2, memory_gb=2, idx=f"tracked-{index}")))
            testbed.run(until=testbed.env.now + 1.0)
        testbed.run(until=client.wait_all(handles))
        assert all(h.succeeded and h.cluster == "cluster-c" for h in handles)
        assert sum(h.status_polls for h in handles) >= 8 * jobs
        assert status_counter(testbed, "status_unknown_job") <= 2


class TestClientPollsTheAckedStatusName:
    """The gateway decides where a job's status lives; the client follows."""

    def _stub_gateway(self, status_name):
        env = Environment()
        edge = Forwarder(env, "edge", cs_capacity=0)
        polled = []

        def on_compute(interest):
            ack = {"accepted": True, "job_id": "job-x", "cluster": "stub",
                   "status_name": status_name}
            return Data(name=interest.name, content=json.dumps(ack).encode())

        def on_status(interest):
            polled.append(str(interest.name))
            if str(interest.name) != status_name:
                return interest.nack(NackReason.NO_ROUTE)
            state = JobState.COMPLETED if len(polled) >= 3 else JobState.RUNNING
            payload = {"job_id": "job-x", "state": state.value}
            return Data(name=interest.name, content=json.dumps(payload).encode())

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


class TestCentralizedBaseline:
    def _small_and_large(self):
        testbed = LIDCTestbed(None)
        testbed.add_cluster(name="a-small", node_cpu=4, node_memory="8Gi")
        testbed.add_cluster(name="b-large", node_cpu=16, node_memory="64Gi")
        return testbed, CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))

    def test_placement_and_completion(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=9)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        submission = controller.submit(sleep_request(20))
        assert submission.accepted
        cluster = testbed.cluster(submission.cluster)
        testbed.run(until=cluster.cluster.job(submission.record.k8s_job_name).completion)
        assert submission.record.state == JobState.COMPLETED
        assert [s.accepted for s in controller.submissions] == [True]

    def test_controller_failure_blocks_all_submissions(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=10)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        controller.fail()
        with pytest.raises(ControllerUnavailable):
            controller.submit(sleep_request(5))
        recorded = controller.try_submit(sleep_request(5))
        assert not recorded.accepted

    def test_requires_manual_cluster_registration(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=11)
        clusters = list(testbed.clusters.values())
        controller = CentralizedController(testbed.env, clusters=clusters[:1])
        assert [c.name for c in controller.clusters()] == [clusters[0].name]
        # Only the cluster it was configured with takes jobs, even when full.
        picks = {controller.submit(sleep_request(1000, idx=str(i))).cluster for i in range(10)}
        assert picks == {clusters[0].name}

    def test_validation_error_recorded_not_raised(self):
        testbed = LIDCTestbed.single_cluster(seed=12)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        submission = controller.submit(ComputeRequest(app="BLAST", dataset="junk", reference="H"))
        assert not submission.accepted
        assert "malformed" in submission.error

    def test_only_the_cluster_that_fits_takes_a_big_request(self):
        _testbed, controller = self._small_and_large()
        submission = controller.submit(sleep_request(cpu=8, memory_gb=32))
        assert submission.accepted and submission.cluster == "b-large"

    def test_oversized_request_still_places(self):
        # Kubernetes holds the pod Pending, so a request no cluster can fit
        # queues on one of them rather than being refused.
        _testbed, controller = self._small_and_large()
        submission = controller.submit(sleep_request(cpu=512, memory_gb=1024))
        assert submission.accepted and submission.cluster in {"a-small", "b-large"}

    def test_no_registered_cluster_places_nowhere(self):
        controller = CentralizedController(Environment())
        submission = controller.submit(sleep_request())
        assert not submission.accepted and submission.cluster is None
        assert "no registered cluster" in submission.error

    def test_active_jobs_steer_placement(self):
        testbed, controller = self._small_and_large()
        # Fewest active jobs wins over lowest CPU use: one job on the 4-CPU
        # "a-small" uses a larger share than two on the 16-CPU "b-large".
        testbed.cluster("a-small").gateway.submit_local(sleep_request(1000))
        for _ in range(2):
            testbed.cluster("b-large").gateway.submit_local(sleep_request(1000))
        testbed.run(until=1.0)
        small, large = controller.clusters()
        assert small.utilization()["cpu"] > large.utilization()["cpu"]
        assert controller.submit(sleep_request()).cluster == "a-small"

    def test_a_cluster_with_fewer_jobs_but_no_room_is_passed_over(self):
        testbed, controller = self._small_and_large()
        testbed.cluster("b-large").gateway.submit_local(sleep_request(1000))
        assert controller.submit(sleep_request(cpu=8, memory_gb=32)).cluster == "b-large"

    def test_oversized_request_queues_on_the_cluster_with_fewest_jobs(self):
        testbed, controller = self._small_and_large()
        testbed.cluster("a-small").gateway.submit_local(sleep_request(1000))
        submission = controller.submit(sleep_request(cpu=512, memory_gb=1024))
        assert submission.accepted and submission.cluster == "b-large"

    def test_cpu_use_breaks_a_tie_in_active_jobs(self):
        testbed, controller = self._small_and_large()
        # One job each: the 2-CPU job fills more of "a-small" than the
        # 1-CPU job fills of "b-large", and both still fit another 1-CPU job.
        testbed.cluster("a-small").gateway.submit_local(sleep_request(1000, cpu=2))
        testbed.cluster("b-large").gateway.submit_local(sleep_request(1000))
        testbed.run(until=1.0)
        assert controller.submit(sleep_request()).cluster == "b-large"

    def test_name_breaks_a_full_tie(self):
        testbed = LIDCTestbed(None)
        for name in ("c-twin", "a-twin", "b-twin"):
            testbed.add_cluster(name=name, node_cpu=8, node_memory="16Gi")
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        assert controller.submit(sleep_request()).cluster == "a-twin"

    def test_placement_counts_tally_accepted_submissions_per_cluster(self):
        _testbed, controller = self._small_and_large()
        for idx in range(4):
            controller.submit(sleep_request(1000, idx=str(idx)))
        controller.submit(ComputeRequest(app="NOPE", cpu=1, memory_gb=1))
        controller.fail()
        controller.try_submit(sleep_request())
        assert controller.placement_counts() == {"a-small": 2, "b-large": 2}
        assert [s.accepted for s in controller.submissions] == [True] * 4 + [False, False]

    def test_unknown_application_is_refused_before_any_job_exists(self):
        testbed = LIDCTestbed.single_cluster(seed=12)
        controller = CentralizedController(testbed.env, clusters=list(testbed.clusters.values()))
        submission = controller.submit(ComputeRequest(app="NOPE", cpu=1, memory_gb=1))
        assert not submission.accepted
        assert "unknown application" in submission.error
        assert controller.placement_counts() == {}
        assert len(testbed.cluster("cluster-a").gateway.tracker) == 0


class TestTestbedBuilder:
    def test_single_cluster_shape(self):
        testbed = LIDCTestbed.single_cluster(seed=13)
        assert list(testbed.clusters) == ["cluster-a"]
        assert testbed.cluster("cluster-a").spec.node_count == 1
        with pytest.raises(LIDCError):
            testbed.cluster("missing")

    def test_auto_names_skip_names_already_taken(self):
        testbed = LIDCTestbed(framework.TestbedConfig(load_paper_datasets=False))
        testbed.add_cluster(name="cluster-b")
        testbed.add_cluster()  # index 1 would be cluster-b: it takes the next free name
        testbed.add_cluster()
        assert list(testbed.clusters) == ["cluster-b", "cluster-c", "cluster-d"]

    def test_a_taken_name_is_refused_before_anything_is_built(self):
        testbed = LIDCTestbed(framework.TestbedConfig(load_paper_datasets=False))
        testbed.add_cluster(name="cluster-a")
        scheduled = testbed.env.queue_size
        for name in ("cluster-a", CLIENT_EDGE):
            with pytest.raises(OverlayError):
                testbed.add_cluster(name=name)
        assert testbed.env.queue_size == scheduled  # no orphan deployments
        assert list(testbed.clusters) == ["cluster-a"]

    def test_multi_cluster_star(self):
        star = LIDCTestbed.multi_cluster(3, seed=14)
        assert len(star.clusters) == 3
        assert [(link.a, link.b, link.latency_s) for link in star.overlay.links()] == [
            (name, CLIENT_EDGE, framework.WAN_LATENCY_S) for name in star.clusters]
        with pytest.raises(LIDCError):
            LIDCTestbed.multi_cluster(0)

    def test_a_chain_past_cluster_z_links_each_cluster_to_the_one_before(self, chain_testbed):
        chain = chain_testbed(28, seed=18)
        names = list(chain.clusters)
        assert names[25:] == ["cluster-z", "cluster-a1", "cluster-b1"]
        links = [(link.a, link.b) for link in chain.overlay.links()]
        assert links == list(zip(names, [CLIENT_EDGE] + names[:-1]))

    def test_a_star_past_cluster_z_names_every_cluster_uniquely(self):
        star = LIDCTestbed.multi_cluster(28, seed=19)
        names = list(star.clusters)
        assert len(set(names)) == 28
        assert [(link.a, link.b) for link in star.overlay.links()] == [
            (name, CLIENT_EDGE) for name in names]
        assert star.overlay.reachable_compute_origins(CLIENT_EDGE) == sorted(names)

    def test_chain_latencies_follow_the_order_given(self, chain_testbed):
        chain = chain_testbed(3, seed=20, latencies_s=[0.01, 0.02])
        latencies = [link.latency_s for link in chain.overlay.links()]
        # A cluster added without a latency gets the configured WAN latency.
        assert latencies == [0.01, 0.02, framework.WAN_LATENCY_S]

    def test_cluster_regions_assigned_round_robin(self):
        testbed = LIDCTestbed.multi_cluster(3, seed=16)
        regions = [cluster.spec.region for cluster in testbed.clusters.values()]
        assert len(set(regions)) == 3

    def test_stats_shape(self):
        """The state the testbed report used to gather is read where kept."""
        testbed = LIDCTestbed.single_cluster(seed=17)
        assert set(testbed.clusters) == set(testbed.overlay.clusters) != set()
        assert testbed.env.now == 0
        for cluster in testbed.clusters.values():
            assert len(cluster.gateway.tracker) == 0
