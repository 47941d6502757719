"""Failure injection and cross-cutting invariants.

These tests stress the reproduction in the ways a real deployment gets
stressed — a cluster too full to take a job, clusters vanishing mid-workflow,
storage filling up, malformed traffic — and check system-wide invariants with
property-based tests (the scheduler never overcommits a node, the content
store never exceeds its capacity, canonical names are stable).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.apiserver import ApiServer
from repro.cluster.node import Node
from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Container, Pod, PodPhase, PodSpec, ResourceRequirements
from repro.cluster.quantity import Quantity
from repro.cluster.scheduler import Scheduler
from repro.core import ComputeRequest, LIDCTestbed
from repro.core.spec import JobState
from repro.exceptions import StorageError
from repro.ndn.client import RetryPolicy
from repro.ndn.cs import ContentStore
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest


class TestFullCluster:
    def test_other_cluster_takes_a_job_the_full_one_cannot(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=22)
        client = testbed.client(poll_interval_s=10.0)
        full = testbed.cluster("cluster-a")
        # A long job takes 7 of the node's 7.75 allocatable cores.
        full.gateway.submit_local(
            ComputeRequest(app="SLEEP", cpu=7, memory_gb=1, params={"duration": "100000"}))
        testbed.run(until=testbed.env.now + 5)
        assert not full.gateway.can_fit(ComputeRequest(app="SLEEP", cpu=1, memory_gb=1))
        outcome = testbed.run(until=client.submit(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "30"}),
            fetch_result=False).done)
        assert outcome.succeeded
        assert outcome.submission.cluster == "cluster-b"


class TestClusterLossMidWorkflow:
    def test_workflow_fails_cleanly_when_cluster_disappears(self):
        testbed = LIDCTestbed.single_cluster(seed=23)
        client = testbed.client(poll_interval_s=30.0, retry_policy=RetryPolicy(max_retries=0))

        handle = client.submit(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "10000"}))
        testbed.run(until=testbed.env.now + 50)
        assert handle.outcome.submission.accepted and not handle.done.triggered
        testbed.overlay.fail_cluster("cluster-a")
        # Status Interests can no longer reach any gateway: the session resolves
        # to a FAILED outcome carrying the timeout/NACK instead of hanging.
        outcome = testbed.run(until=handle.done)
        assert not outcome.succeeded
        assert outcome.state == JobState.FAILED
        assert "status tracking failed" in (outcome.error or "")
        # No pending-Interest book-keeping leaks from the dead session.
        assert client.consumer.pending_count() == 0


class TestStorageExhaustion:
    def test_datalake_full_rejects_new_publications(self, env):
        api = ApiServer(clock=lambda: env.now)
        from repro.cluster.storage import NFSServer, StorageController
        nfs = NFSServer("nfs")
        nfs.capacity_bytes = 1000
        pvc = StorageController(api, nfs).create_pvc("tiny")
        from repro.datalake.repo import DataLake
        lake = DataLake(pvc)
        lake.publish_bytes("fits", b"x" * 400)
        with pytest.raises(StorageError):
            lake.publish_placeholder("too-big", 10_000)
        # The failed publication is not half-registered.
        assert not lake.has_dataset("too-big")


class TestMalformedTraffic:
    def test_gateway_survives_garbage_parameter_components(self, env):
        from repro.cluster.cluster import ClusterSpec
        from repro.core.cluster_endpoint import LIDCCluster
        from repro.ndn.client import Consumer
        import json

        cluster = LIDCCluster(env, ClusterSpec(name="g", node_count=1))
        consumer = Consumer(env, cluster.gateway_nfd)
        for component in ("", "&&&", "a=1&a=2", "app=", "=x"):
            name = Name("/ndn/k8s/compute").append(component or "x")
            data = env.run(until=consumer.express_interest(name, lifetime=2.0))
            payload = json.loads(data.content_text())
            assert payload["accepted"] is False
        # The gateway is still healthy afterwards.
        record = cluster.gateway.submit_local(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "5"}))
        env.run(until=env.now + 30)
        assert cluster.gateway.tracker.get(record.job_id).state == JobState.COMPLETED


def _pod(name: str, cpu: float, memory_gb: float) -> Pod:
    return Pod(
        metadata=ObjectMeta(name=name),
        spec=PodSpec(containers=[Container(
            name="c",
            resources=ResourceRequirements.of(cpu=cpu, memory=f"{memory_gb}Gi"),
            workload=1000.0,
        )]),
    )


class TestSchedulerInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        node_cpus=st.lists(st.integers(min_value=2, max_value=32), min_size=1, max_size=4),
        pod_requests=st.lists(
            st.tuples(st.floats(min_value=0.5, max_value=8.0), st.integers(min_value=1, max_value=16)),
            min_size=1, max_size=25,
        ),
    )
    def test_scheduler_never_overcommits_any_node(self, node_cpus, pod_requests):
        api = ApiServer()
        scheduler = Scheduler(api)
        for index, cpus in enumerate(node_cpus):
            api.create("Node", Node.build(f"n{index}", cpu=cpus, memory="64Gi"))
        for index, (cpu, memory_gb) in enumerate(pod_requests):
            api.create("Pod", _pod(f"p{index}", cpu, memory_gb))
        for node in api.list("Node"):
            used = Quantity()
            for pod in api.list("Pod"):
                if pod.node_name == node.name and not pod.is_terminal:
                    used = used + pod.total_requests()
            assert used.fits_within(node.allocatable)

    @settings(max_examples=25, deadline=None)
    @given(pod_requests=st.lists(
        st.floats(min_value=0.25, max_value=2.0), min_size=1, max_size=20))
    def test_every_feasible_pod_is_eventually_bound(self, pod_requests):
        api = ApiServer()
        Scheduler(api)
        api.create("Node", Node.build("n0", cpu=64, memory="256Gi"))
        for index, cpu in enumerate(pod_requests):
            api.create("Pod", _pod(f"p{index}", cpu, 1))
        assert all(pod.is_scheduled for pod in api.list("Pod"))


class TestContentStoreInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        names=st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=100),
    )
    def test_size_never_exceeds_capacity_and_hits_are_correct(self, capacity, names):
        cs = ContentStore(capacity=capacity)
        for value in names:
            cs.insert(Data(name=Name(f"/obj/{value}"), content=b"x"))
            assert len(cs) <= capacity
        # Every name still cached must be findable; every hit returns the right name.
        for value in set(names):
            found = cs.find(Interest(name=Name(f"/obj/{value}")))
            if found is not None:
                assert found.name == Name(f"/obj/{value}")

    @settings(max_examples=30, deadline=None)
    @given(names=st.lists(st.text(alphabet="abc", min_size=1, max_size=4), min_size=1, max_size=30))
    def test_erase_removes_exactly_the_named_entry(self, names):
        cs = ContentStore(capacity=1000)
        for index, suffix in enumerate(names):
            cs.insert(Data(name=Name(["keep" if index % 2 else "drop", suffix, str(index)]),
                           content=b"x"))
        kept = [name for name in cs.names() if str(name).startswith("/keep")]
        for name in cs.names():
            if not str(name).startswith("/keep"):
                cs.erase(name)
        cs.erase("/drop")  # a prefix of every erased name, itself never cached
        assert cs.names() == kept


class TestNamingInvariants:
    @settings(max_examples=50, deadline=None)
    @given(cpu=st.floats(min_value=0.5, max_value=64, allow_nan=False),
           memory=st.floats(min_value=0.5, max_value=512, allow_nan=False),
           dataset=st.sampled_from(["SRR2931415", "SRR5139395", None]))
    def test_cache_key_independent_of_resources(self, cpu, memory, dataset):
        base = ComputeRequest(app="BLAST", cpu=2, memory_gb=4, dataset=dataset, reference="HUMAN")
        variant = ComputeRequest(app="BLAST", cpu=cpu, memory_gb=memory,
                                 dataset=dataset, reference="HUMAN")
        assert base.cache_key() == variant.cache_key()

    @settings(max_examples=50, deadline=None)
    @given(cpu=st.integers(min_value=1, max_value=64),
           memory=st.integers(min_value=1, max_value=512))
    def test_name_round_trip_preserves_resources(self, cpu, memory):
        request = ComputeRequest(app="BLAST", cpu=cpu, memory_gb=memory,
                                 dataset="SRR2931415", reference="HUMAN")
        parsed = ComputeRequest.from_name(request.to_name())
        assert parsed.cpu == cpu
        assert parsed.memory_gb == memory
