"""Tests for the gateway and the per-cluster LIDC endpoint."""

import json

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core import naming
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.spec import ComputeRequest, JobState
from repro.exceptions import InterestNacked, UnknownApplication, ValidationFailure
from repro.ndn.client import Consumer
from repro.ndn.packet import Interest
from repro.sim.engine import Environment


@pytest.fixture
def lidc_cluster(env):
    """A one-node LIDC cluster with the paper datasets loaded."""
    return LIDCCluster(env, ClusterSpec(name="alpha", node_count=1, node_cpu=8, node_memory="32Gi"))


@pytest.fixture
def consumer(env, lidc_cluster):
    """An NDN consumer attached directly to the cluster's gateway NFD."""
    return Consumer(env, lidc_cluster.gateway_nfd, name="test-client")


def submit(env, consumer, request: ComputeRequest, lifetime=5.0):
    data = env.run(until=consumer.express_interest(request.to_name(), lifetime=lifetime))
    return json.loads(data.content_text())


class TestGatewayCompute:
    def test_accepts_valid_blast_request(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(
            app="BLAST", cpu=2, memory_gb=4, dataset="SRR2931415", reference="HUMAN"))
        assert ack["accepted"] is True
        assert ack["cluster"] == "alpha"
        assert ack["job_id"].startswith("alpha-job-")
        assert ack["status_name"].startswith("/ndn/k8s/status/")

    def test_spawns_kubernetes_job_with_requested_resources(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(
            app="BLAST", cpu=4, memory_gb=6, dataset="SRR5139395", reference="HUMAN"))
        record = lidc_cluster.gateway.tracker.get(ack["job_id"])
        k8s_job = lidc_cluster.cluster.job(record.k8s_job_name)
        requests = k8s_job.template.total_requests()
        assert requests.cpu == pytest.approx(4)
        assert requests.memory == 6 * 1024**3

    def test_rejects_malformed_srr(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(
            app="BLAST", dataset="XYZ123", reference="HUMAN"))
        assert ack["accepted"] is False
        assert "malformed" in ack["error"]
        assert len(lidc_cluster.gateway.tracker) == 0

    def test_rejects_unknown_application(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(app="FOLDING", dataset="SRR2931415"))
        assert ack["accepted"] is False
        assert "unknown application" in ack["error"]

    @pytest.mark.parametrize("name, counter", [
        (ComputeRequest(app="BLAST", dataset="XYZ123", reference="HUMAN").to_name(),
         "compute_rejected_validation"),
        (ComputeRequest(app="FOLDING", dataset="SRR2931415").to_name(),
         "compute_rejected_unknown_app"),
        (naming.COMPUTE_PREFIX.append("not-key-value"), "compute_malformed"),
    ], ids=["validation", "unknown-app", "malformed-name"])
    def test_rejection_is_counted_by_kind(self, env, lidc_cluster, consumer, name, counter):
        data = env.run(until=consumer.express_interest(name, lifetime=5.0))
        assert json.loads(data.content_text())["accepted"] is False
        assert lidc_cluster.gateway.metrics.snapshot() == {
            "compute_interests": 1, counter: 1,
        }

    def test_admission_and_completion_are_counted(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(
            app="SLEEP", cpu=1, memory_gb=1, params={"duration": "100"}))
        assert ack["accepted"] is True
        metrics = lidc_cluster.gateway.metrics
        assert metrics.counter("jobs_admitted").value == 1
        assert metrics.counter("jobs_completed").value == 0
        env.run(until=env.now + 300)
        assert metrics.counter("jobs_completed").value == 1
        assert lidc_cluster.cluster.jobs.jobs_completed == 1

    def test_malformed_compute_name_answered_with_error(self, env, lidc_cluster, consumer):
        name = naming.COMPUTE_PREFIX.append("not-key-value")
        data = env.run(until=consumer.express_interest(name, lifetime=5.0))
        payload = json.loads(data.content_text())
        assert payload["accepted"] is False

    def test_capacity_exhaustion_nacks_with_congestion(self, env, lidc_cluster, consumer):
        # The single 8-CPU node fits two 3-CPU jobs but not a third.
        big = ComputeRequest(app="SLEEP", cpu=3, memory_gb=2, params={"duration": "500"})
        submit(env, consumer, ComputeRequest(app="SLEEP", cpu=3, memory_gb=2,
                                             params={"duration": "500", "idx": "0"}))
        submit(env, consumer, ComputeRequest(app="SLEEP", cpu=3, memory_gb=2,
                                             params={"duration": "500", "idx": "1"}))
        with pytest.raises(InterestNacked) as exc_info:
            submit(env, consumer, ComputeRequest(app="SLEEP", cpu=3, memory_gb=2,
                                                 params={"duration": "500", "idx": "2"}))
        assert "Congestion" in str(exc_info.value)
        metrics = lidc_cluster.gateway.metrics
        assert metrics.counter("compute_rejected_capacity").value == 1
        assert metrics.counter("jobs_admitted").value == 2

    def test_job_completion_publishes_result_to_datalake(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(
            app="BLAST", cpu=2, memory_gb=4, dataset="SRR2931415", reference="HUMAN"))
        env.run(until=env.now + 40_000)
        record = lidc_cluster.gateway.tracker.get(ack["job_id"])
        assert record.state == JobState.COMPLETED
        assert record.result_size_bytes == 941_000_000
        result_id = f"{ack['job_id']}-output"
        assert lidc_cluster.datalake.has_dataset(result_id)
        assert lidc_cluster.datalake.get_record(result_id).metadata["source_job"] == ack["job_id"]

    def test_submit_local_bypasses_ndn_but_validates(self, env, lidc_cluster):
        record = lidc_cluster.gateway.submit_local(
            ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                           dataset="SRR2931415", reference="HUMAN"))
        assert record.state == JobState.PENDING
        with pytest.raises(ValidationFailure):
            lidc_cluster.gateway.submit_local(ComputeRequest(app="BLAST", reference="HUMAN"))
        assert len(lidc_cluster.gateway.tracker) == 1  # the refused request left no record


class TestGatewayCanFit:
    @pytest.fixture
    def two_nodes(self, env):
        """Two 4-CPU, 4Gi nodes; after the system reserve each has 3.75 CPUs and 3.5Gi free."""
        return LIDCCluster(env, ClusterSpec(name="pair", node_count=2, node_cpu=4,
                                            node_memory="4Gi"))

    def test_fits_while_a_node_has_room(self, two_nodes):
        assert two_nodes.gateway.can_fit(ComputeRequest(app="SLEEP", cpu=3.75, memory_gb=3.5))

    def test_cpu_must_fit_on_one_node(self, two_nodes):
        # Seven and a half CPUs are free across the cluster, but no single node has six.
        assert not two_nodes.gateway.can_fit(ComputeRequest(app="SLEEP", cpu=6, memory_gb=1))

    def test_memory_must_fit_on_one_node(self, two_nodes):
        assert not two_nodes.gateway.can_fit(ComputeRequest(app="SLEEP", cpu=1, memory_gb=5))

    def test_gigabytes_are_read_as_gibibytes(self, two_nodes):
        gateway = two_nodes.gateway
        # 3.6 decimal gigabytes would fit in 3.5Gi; 3.6Gi does not.
        assert gateway.can_fit(ComputeRequest(app="SLEEP", cpu=1, memory_gb=3.5))
        assert not gateway.can_fit(ComputeRequest(app="SLEEP", cpu=1, memory_gb=3.6))

    def test_running_jobs_use_up_room_until_they_finish(self, env, two_nodes):
        gateway = two_nodes.gateway
        request = ComputeRequest(app="SLEEP", cpu=3, memory_gb=1, params={"duration": "50"})
        for idx in range(2):
            gateway.submit_local(ComputeRequest(app="SLEEP", cpu=3, memory_gb=1,
                                                params={"duration": "50", "idx": str(idx)}))
        env.run(until=env.now + 1)
        assert not gateway.can_fit(request)
        env.run(until=env.now + 200)
        assert gateway.can_fit(request)


class TestSubmitLocalRefusesUnknownApplications:
    def test_no_job_record_is_created(self, lidc_cluster):
        gateway = lidc_cluster.gateway
        with pytest.raises(UnknownApplication, match="FOLDING"):
            gateway.submit_local(ComputeRequest(app="FOLDING", dataset="SRR2931415"))
        assert len(gateway.tracker) == 0
        assert lidc_cluster.cluster.jobs.jobs_completed == 0

    def test_a_known_application_still_runs_afterwards(self, env, lidc_cluster):
        gateway = lidc_cluster.gateway
        with pytest.raises(UnknownApplication):
            gateway.submit_local(ComputeRequest(app="FOLDING"))
        record = gateway.submit_local(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "10"}))
        assert len(gateway.tracker) == 1
        env.run(until=env.now + 100)
        assert record.state == JobState.COMPLETED


class TestGatewayStatus:
    def test_status_transitions_pending_running_completed(self, env, lidc_cluster, consumer):
        ack = submit(env, consumer, ComputeRequest(
            app="SLEEP", cpu=1, memory_gb=1, params={"duration": "100"}))
        status_name = ack["status_name"]

        def poll():
            data = yield consumer.express_interest(status_name, must_be_fresh=True, lifetime=5.0)
            return json.loads(data.content_text())

        early = env.run_process(poll())
        assert early["state"] in ("Pending", "Running")
        env.run(until=env.now + 10)
        mid = env.run_process(poll())
        assert mid["state"] == "Running"
        env.run(until=env.now + 200)
        late = env.run_process(poll())
        assert late["state"] == "Completed"
        assert late["result_name"].startswith("/ndn/k8s/data/")

    def test_a_non_terminal_status_reply_carries_only_the_state(self, env):
        cluster = LIDCCluster(env, ClusterSpec(name="cluster-a", node_count=1, node_cpu=8,
                                               node_memory="32Gi"))
        consumer = Consumer(env, cluster.gateway_nfd, name="test-client")
        ack = submit(env, consumer, ComputeRequest(
            app="SLEEP", cpu=1, memory_gb=1, params={"duration": "100"}))
        env.run(until=env.now + 10)
        data = env.run(until=consumer.express_interest(
            ack["status_name"], must_be_fresh=True, lifetime=5.0))
        # The job id, cluster, app and submission time are the client's
        # already: the reply repeats none of them.
        assert json.loads(data.content_text()) == {"state": "Running"}
        assert len(data.encode()) <= 130
        assert ack["status_name"] == "/ndn/k8s/status/cluster-a/1"

    def test_unknown_job_id_is_nacked(self, env, lidc_cluster, consumer):
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest(
                naming.status_name("alpha-job-999"), lifetime=1.0))

    def test_failed_job_reports_error(self, env, lidc_cluster, consumer):
        # COMPRESS on a dataset that is not in the lake fails inside the pod.
        lidc_cluster.gateway.services.get("COMPRESS").validator = None
        ack = submit(env, consumer, ComputeRequest(app="COMPRESS", dataset="does-not-exist"))
        assert ack["accepted"] is True
        env.run(until=env.now + 60)
        record = lidc_cluster.gateway.tracker.get(ack["job_id"])
        assert record.state == JobState.FAILED
        # The pod's message reaches the record through the Job.
        assert record.error == "compress: dataset 'does-not-exist' not found"

        def poll():
            data = yield consumer.express_interest(ack["status_name"], must_be_fresh=True)
            return json.loads(data.content_text())

        payload = env.run_process(poll())
        assert payload["state"] == "Failed"
        assert payload["error"]


class TestResultCaching:
    def test_identical_request_served_from_cache(self, env):
        cluster = LIDCCluster(
            Environment(), ClusterSpec(name="cached", node_count=1),
        )
        # Build a dedicated environment/cluster pair where caching is on.
        env2 = cluster.env
        cluster.gateway.enable_result_cache = True
        consumer = Consumer(env2, cluster.gateway_nfd, name="c")
        request = ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "50"})
        ack1 = json.loads(env2.run(until=consumer.express_interest(
            request.to_name(), lifetime=5.0, must_be_fresh=True)).content_text())
        env2.run(until=env2.now + 200)
        ack2 = json.loads(env2.run(until=consumer.express_interest(
            request.to_name(), lifetime=5.0, must_be_fresh=True)).content_text())
        assert ack1["accepted"] and ack2["accepted"]
        assert ack2.get("cached") is True
        assert ack2["result_name"].endswith(f"{ack1['job_id']}-output")
        record = cluster.gateway.tracker.get(ack2["job_id"])
        assert record.from_cache
        assert record.runtime() == 0.0


class TestLIDCClusterEndpoint:
    def test_paper_datasets_loaded_on_start(self, lidc_cluster):
        for dataset in ("human-reference", "SRR2931415", "SRR5139395"):
            assert lidc_cluster.datalake.has_dataset(dataset)

    def test_nodeport_and_dns_services_created(self, env, lidc_cluster):
        env.run(until=5.0)
        assert lidc_cluster.node_port is not None
        assert 30000 <= lidc_cluster.node_port <= 32767
        dns_name = lidc_cluster.datalake_service.dns_name
        assert dns_name == "dl-nfd.ndnk8s.svc.cluster.local"
        record = lidc_cluster.cluster.dns.resolve(dns_name)
        assert record.cluster_ip == lidc_cluster.datalake_service.cluster_ip

    def test_system_deployments_running(self, env, lidc_cluster):
        env.run(until=5.0)
        running = {pod.metadata.labels.get("app") for pod in lidc_cluster.cluster.running_pods()}
        assert {"gateway-nfd", "dl-nfd", "fileserver"} <= running

    def test_gateway_nfd_routes_data_prefix_to_datalake(self, env, lidc_cluster):
        consumer = Consumer(env, lidc_cluster.gateway_nfd)
        data = env.run(until=consumer.express_interest("/ndn/k8s/data/SRR2931415", lifetime=5.0))
        manifest = json.loads(data.content_text())
        assert manifest["dataset_id"] == "SRR2931415"
        assert manifest["has_payload"] is False

    def test_announce_and_withdraw_prefixes(self, env, lidc_cluster):
        lidc_cluster.announce_prefixes()
        for prefix in ("/ndn/k8s/compute", "/ndn/k8s/data", "/ndn/k8s/status"):
            assert lidc_cluster.routing.origins_for(prefix) == [lidc_cluster.name]
        lidc_cluster.withdraw_prefixes()
        assert lidc_cluster.routing.rib_size() == 0

    def test_stats_shape(self, env, lidc_cluster):
        """The counters the endpoint report used to gather are read where kept."""
        assert lidc_cluster.name == "alpha"
        assert len(lidc_cluster.gateway.tracker) == 0
        assert lidc_cluster.gateway.metrics.snapshot() == {}
        assert lidc_cluster.datalake.publish_count == len(lidc_cluster.datalake.catalog) > 0
        assert lidc_cluster.cluster.jobs.jobs_completed == 0
        for nfd in (lidc_cluster.gateway_nfd, lidc_cluster.datalake_nfd):
            assert nfd.faces()
            for face in nfd.faces().values():
                assert (face.stats.bytes_in, face.stats.bytes_out, face.stats.drops) == (0, 0, 0)
