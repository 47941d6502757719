"""Tests for services, DNS, storage and the Cluster facade."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ClusterError, StorageError
from repro.cluster.apiserver import ApiServer
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.dns import ClusterDNS
from repro.cluster.kubelet import Kubelet
from repro.cluster.node import Node
from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Container, Pod, PodPhase, PodSpec, ResourceRequirements
from repro.cluster.quantity import Quantity
from repro.cluster.scheduler import Scheduler
from repro.cluster.service import NODE_PORT_RANGE, ServiceController, ServiceType
from repro.cluster.storage import NFSServer, StorageController


@pytest.fixture
def running_cluster_bits(env):
    """API server + scheduler + kubelet on one node, plus service controller."""
    api = ApiServer(clock=lambda: env.now)
    Scheduler(api, clock=lambda: env.now)
    node = Node.build("n1", cpu=8, memory="16Gi")
    api.create("Node", node)
    Kubelet(env, api, node)
    services = ServiceController(api)
    return api, services


def running_pod(api, env, name, labels):
    pod = Pod(
        metadata=ObjectMeta(name=name, namespace="ndnk8s", labels=labels),
        spec=PodSpec(containers=[Container(name="c", workload=math.inf, startup_delay_s=0.0)]),
    )
    api.create("Pod", pod)
    env.run(until=env.now + 1.0)
    return pod


class TestServices:
    def test_cluster_ip_allocated(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        service = services.create_service("nfd", selector={"app": "nfd"})
        assert service.cluster_ip.startswith("10.152.")
        assert service.service_type == ServiceType.CLUSTER_IP
        assert service.node_port is None

    def test_node_port_allocation_in_range(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        service = services.create_service("gw", selector={"app": "gw"}, service_type="NodePort")
        assert NODE_PORT_RANGE[0] <= service.node_port <= NODE_PORT_RANGE[1]

    def test_explicit_node_port_and_conflict(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        services.create_service("a", selector={"app": "a"}, service_type="NodePort", node_port=30007)
        with pytest.raises(ClusterError):
            services.create_service("b", selector={"app": "b"}, service_type="NodePort", node_port=30007)

    def test_node_port_out_of_range_rejected(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        with pytest.raises(ClusterError):
            services.create_service("x", selector={"app": "x"}, service_type="NodePort", node_port=80)

    def test_endpoints_track_running_pods(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        service = services.create_service("nfd", selector={"app": "nfd"})
        assert not service.has_ready_endpoints
        running_pod(api, env, "nfd-pod-1", {"app": "nfd"})
        assert service.endpoints.addresses == ["nfd-pod-1"]
        running_pod(api, env, "other", {"app": "other"})
        assert service.endpoints.addresses == ["nfd-pod-1"]

    def test_resolve_node_port(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        service = services.create_service("gw", selector={"app": "gw"}, service_type="NodePort")
        assert services.resolve_node_port(service.node_port) is service
        assert services.resolve_node_port(32111) is None

    def test_dns_name_format(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        service = services.create_service("dl-nfd", selector={"app": "dl-nfd"}, namespace="ndnk8s")
        assert service.dns_name == "dl-nfd.ndnk8s.svc.cluster.local"


class TestClusterDNS:
    def test_resolve_full_and_short_names(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        services.create_service("dl-nfd", selector={"app": "dl-nfd"})
        dns = ClusterDNS(api)
        record = dns.resolve("dl-nfd.ndnk8s.svc.cluster.local")
        assert record.cluster_ip.startswith("10.152.")
        assert dns.resolve("dl-nfd").cluster_ip == record.cluster_ip
        assert dns.resolve("dl-nfd.ndnk8s").cluster_ip == record.cluster_ip

    def test_resolution_failure(self, env, running_cluster_bits):
        api, _ = running_cluster_bits
        dns = ClusterDNS(api)
        with pytest.raises(ClusterError):
            dns.resolve("missing.ndnk8s.svc.cluster.local")
        assert dns.try_resolve("missing") is None
        assert dns.failures == 2
        assert dns.queries == 2

    def test_endpoints_included_in_record(self, env, running_cluster_bits):
        api, services = running_cluster_bits
        services.create_service("nfd", selector={"app": "nfd"})
        running_pod(api, env, "nfd-1", {"app": "nfd"})
        dns = ClusterDNS(api)
        assert dns.resolve("nfd").endpoints == ("nfd-1",)


class TestStorage:
    def test_nfs_write_read_stat(self):
        nfs = NFSServer(capacity="1Gi")
        nfs.write("/exports/a.txt", b"hello", metadata={"k": "v"})
        assert nfs.read("/exports/a.txt") == b"hello"
        assert nfs.stat("/exports/a.txt").size_bytes == 5
        assert nfs.listdir("/exports") == ["/exports/a.txt"]

    def test_nfs_placeholder(self):
        nfs = NFSServer(capacity="1Ti")
        nfs.write_placeholder("/exports/huge.fa", 3_200_000_000)
        assert nfs.stat("/exports/huge.fa").is_placeholder
        with pytest.raises(StorageError):
            nfs.read("/exports/huge.fa")

    def test_nfs_capacity_enforced(self):
        nfs = NFSServer(capacity=100)
        with pytest.raises(StorageError):
            nfs.write("/big", b"x" * 200)

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["write", "placeholder", "delete"]),
                  st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=60)),
        max_size=40,
    ))
    def test_nfs_running_total_agrees_with_a_fresh_sum(self, ops):
        """``used_bytes`` is a running total kept by write, overwrite and
        delete: after any interleaving it equals a fresh sum over the store,
        and a write is refused at exactly the boundary a fresh sum gives."""
        capacity = 100
        nfs = NFSServer(name="lake", capacity=capacity)
        model: dict[str, int] = {}
        for op, slot, size in ops:
            path = f"/exports/obj{slot}"
            if op == "delete":
                if path in model:
                    nfs.delete(path)
                    del model[path]
                else:
                    with pytest.raises(StorageError, match="no such object"):
                        nfs.delete(path)
            else:
                would_use = sum(model.values()) - model.get(path, 0) + size
                store = (lambda: nfs.write(path, b"x" * size)) if op == "write" else (
                    lambda: nfs.write_placeholder(path, size))
                if would_use > capacity:
                    with pytest.raises(StorageError) as refused:
                        store()
                    assert str(refused.value) == f"NFS server lake full: {would_use} > {capacity}"
                else:
                    store()
                    model[path] = size
            assert nfs.used_bytes() == sum(model.values())
            assert nfs.used_bytes() == sum(nfs.stat(p).size_bytes for p in nfs.listdir())
            assert nfs.object_count() == len(model)

    def test_nfs_delete_and_missing(self):
        nfs = NFSServer()
        nfs.write("/a", b"1")
        nfs.delete("/a")
        with pytest.raises(StorageError):
            nfs.stat("/a")
        with pytest.raises(StorageError):
            nfs.delete("/a")

    def test_pvc_binds_dynamically(self, env):
        api = ApiServer(clock=lambda: env.now)
        storage = StorageController(api)
        pvc = storage.create_pvc("datalake-pvc", "100Gi")
        assert pvc.is_bound
        assert pvc.volume is not None
        assert storage.volumes_provisioned == 1

    def test_pvc_file_operations(self, env):
        api = ApiServer(clock=lambda: env.now)
        storage = StorageController(api)
        pvc = storage.create_pvc("pvc", "10Gi")
        pvc.write("datasets/x.fastq", b"ACGT")
        assert pvc.read("datasets/x.fastq") == b"ACGT"
        assert pvc.exists("datasets/x.fastq")
        assert not pvc.exists("datasets/missing")
        pvc.write_placeholder("datasets/big.fa", 10**9)
        assert pvc.used_bytes() == 10**9 + 4
        assert "datasets/x.fastq" in pvc.listdir()

    def test_unbound_pvc_rejects_io(self, env):
        from repro.cluster.storage import PersistentVolumeClaim
        pvc = PersistentVolumeClaim(metadata=ObjectMeta(name="x"), requested_bytes=100)
        with pytest.raises(StorageError):
            pvc.write("a", b"b")


class TestClusterFacade:
    def test_spec_creates_nodes(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=3, node_cpu=4, node_memory="8Gi"))
        assert len(cluster.nodes()) == 3
        assert cluster.total_allocatable().cpu == pytest.approx((4 - 0.25) * 3)

    def test_duplicate_node_rejected(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=1))
        with pytest.raises(ClusterError):
            cluster.add_node("alpha-node-0")

    def test_job_end_to_end(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=1))
        spec = PodSpec(containers=[Container(
            name="work", resources=ResourceRequirements.of(cpu=1, memory="1Gi"), workload=20.0)])
        job = cluster.create_job(spec, name="test-job")
        env.run(until=job.completion)
        assert job.is_complete
        assert cluster.stats()["jobs_completed"] == 1

    def test_can_fit_and_free_capacity(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=1, node_cpu=4, node_memory="8Gi"))
        assert cluster.can_fit(Quantity.parse(cpu=2, memory="2Gi"))
        assert not cluster.can_fit(Quantity.parse(cpu=32, memory="2Gi"))

    def test_fail_node_kills_pods(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=1))
        spec = PodSpec(containers=[Container(
            name="long", resources=ResourceRequirements.of(cpu=1, memory="1Gi"), workload=1000.0)])
        job = cluster.create_job(spec)
        env.run(until=10.0)
        killed = cluster.fail_node(cluster.jobs.pods_for(job)[0].node_name)
        assert killed == 1
        env.run(until=12.0)
        assert job.is_failed

    def test_utilization_changes_with_load(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=1, node_cpu=4, node_memory="8Gi"))
        assert cluster.utilization()["cpu"] == pytest.approx(0.0)
        spec = PodSpec(containers=[Container(
            name="w", resources=ResourceRequirements.of(cpu=2, memory="4Gi"), workload=100.0)])
        cluster.create_job(spec)
        env.run(until=5.0)
        assert cluster.utilization()["cpu"] > 0.4

    def test_dns_and_service_through_facade(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha", node_count=1))
        spec = PodSpec(containers=[Container(name="nfd", workload=math.inf, startup_delay_s=0.0)])
        cluster.create_deployment(spec, name="nfd", replicas=1)
        cluster.create_service("nfd", selector={"app": "nfd"})
        env.run(until=5.0)
        record = cluster.dns.resolve("nfd.ndnk8s.svc.cluster.local")
        assert record.is_resolvable
        assert len(record.endpoints) == 1

    def test_pvc_through_facade(self, env):
        cluster = Cluster(env, ClusterSpec(name="alpha"))
        pvc = cluster.create_pvc("lake", "50Gi")
        pvc.write("hello.txt", b"hi")
        assert cluster.nfs.used_bytes() == 2
