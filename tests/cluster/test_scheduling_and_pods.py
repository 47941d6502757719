"""Tests for nodes, pods, the scheduler, kubelets and job/deployment controllers."""

import math

import pytest

from repro.cluster.apiserver import ApiServer
from repro.cluster.deployment import DeploymentController
from repro.cluster.job import JobController
from repro.cluster.kubelet import Kubelet
from repro.cluster.node import Node, NodeStatus
from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Container, Pod, PodPhase, PodSpec, ResourceRequirements, WorkloadResult
from repro.cluster.quantity import Quantity
from repro.cluster.scheduler import Scheduler
from repro.sim.engine import Environment


def pod_spec(cpu="1", memory="1Gi", duration=10.0, name="work", node_selector=None):
    return PodSpec(
        containers=[Container(
            name=name,
            resources=ResourceRequirements.of(cpu=cpu, memory=memory),
            workload=duration,
            startup_delay_s=0.0,
        )],
        node_selector=dict(node_selector or {}),
    )


def make_pod(name, **kwargs) -> Pod:
    return Pod(metadata=ObjectMeta(name=name, namespace="default"), spec=pod_spec(**kwargs))


class TestNode:
    def test_build_parses_quantities(self):
        node = Node.build("n1", cpu="4", memory="16Gi")
        assert node.capacity.cpu == 4
        assert node.capacity.memory == 16 * 1024**3

    def test_allocatable_subtracts_system_reserved(self):
        # Every node reserves 250m CPU and 512Mi for the system.
        node = Node.build("n1", cpu=4, memory="16Gi")
        assert node.allocatable.cpu == pytest.approx(3.75)
        assert node.allocatable.memory == 16 * 1024**3 - 512 * 1024**2

    def test_cordon_uncordon(self):
        node = Node.build("n1")
        node.cordon()
        assert not node.is_schedulable
        node.uncordon()
        assert node.is_schedulable

    def test_selector_matching(self):
        node = Node.build("n1", labels={"zone": "us-east", "gpu": "true"})
        assert node.matches_selector({"zone": "us-east"})
        assert not node.matches_selector({"zone": "eu-west"})


class TestPodModel:
    def test_total_requests_sums_containers(self):
        spec = PodSpec(containers=[
            Container(name="a", resources=ResourceRequirements.of(cpu=1, memory="1Gi")),
            Container(name="b", resources=ResourceRequirements.of(cpu="500m", memory="512Mi")),
        ])
        total = spec.total_requests()
        assert total.cpu == pytest.approx(1.5)
        assert total.memory == 1024**3 + 512 * 1024**2

    def test_phase_terminal(self):
        assert PodPhase.SUCCEEDED.is_terminal()
        assert PodPhase.FAILED.is_terminal()
        assert not PodPhase.RUNNING.is_terminal()

    def test_workload_callable_and_result(self):
        container = Container(name="c", workload=lambda pod: WorkloadResult(duration_s=3.0, output={"k": 1}))
        result = container.run_workload(make_pod("p"))
        assert result.duration_s == 3.0 and result.output == {"k": 1}

    def test_workload_plain_number(self):
        assert Container(name="c", workload=42).run_workload(make_pod("p")).duration_s == 42.0

    def test_runtime_none_until_finished(self):
        pod = make_pod("p")
        assert pod.runtime() is None

    def test_resource_limits_default_to_requests(self):
        reqs = ResourceRequirements.of(cpu=2, memory="2Gi", limit_cpu=4)
        assert reqs.limits.cpu == 4
        assert reqs.limits.memory == 2 * 1024**3


@pytest.fixture
def api_env(env):
    api = ApiServer(clock=lambda: env.now)
    return env, api


class TestScheduler:
    def test_binds_pod_to_feasible_node(self, api_env):
        env, api = api_env
        Scheduler(api)
        api.create("Node", Node.build("n1", cpu=4, memory="8Gi"))
        pod = api.create("Pod", make_pod("p1", cpu=2, memory="2Gi"))
        assert pod.node_name == "n1"

    def test_unschedulable_pod_stays_pending(self, api_env):
        env, api = api_env
        scheduler = Scheduler(api)
        api.create("Node", Node.build("small", cpu=1, memory="1Gi"))
        pod = api.create("Pod", make_pod("big", cpu=8, memory="64Gi"))
        assert pod.node_name is None
        assert scheduler.unschedulable_count >= 1
        assert any(ev.reason == "FailedScheduling" for ev in api.events_for("big"))

    def test_respects_node_selector(self, api_env):
        env, api = api_env
        Scheduler(api)
        api.create("Node", Node.build("cpu-node", cpu=8, memory="16Gi"))
        api.create("Node", Node.build("gpu-node", cpu=8, memory="16Gi", labels={"gpu": "true"}))
        pod = api.create("Pod", make_pod("needs-gpu", node_selector={"gpu": "true"}))
        assert pod.node_name == "gpu-node"

    def test_does_not_overcommit_node(self, api_env):
        env, api = api_env
        scheduler = Scheduler(api)
        api.create("Node", Node.build("n1", cpu=4, memory="8Gi"))
        first = api.create("Pod", make_pod("p1", cpu=3, memory="2Gi"))
        second = api.create("Pod", make_pod("p2", cpu=3, memory="2Gi"))
        assert first.node_name == "n1"
        assert second.node_name is None
        free = scheduler.node_free_capacity(api.get("Node", "n1"))
        assert free.cpu < 1.0

    def test_least_allocated_spreads_pods(self, api_env):
        env, api = api_env
        Scheduler(api)
        api.create("Node", Node.build("n1", cpu=8, memory="16Gi"))
        api.create("Node", Node.build("n2", cpu=8, memory="16Gi"))
        p1 = api.create("Pod", make_pod("p1", cpu=2, memory="2Gi"))
        p2 = api.create("Pod", make_pod("p2", cpu=2, memory="2Gi"))
        assert {p1.node_name, p2.node_name} == {"n1", "n2"}

    def test_cordoned_node_excluded(self, api_env):
        env, api = api_env
        Scheduler(api)
        node = Node.build("n1", cpu=8, memory="16Gi")
        node.cordon()
        api.create("Node", node)
        pod = api.create("Pod", make_pod("p1"))
        assert pod.node_name is None

    def test_priority_order(self, api_env):
        env, api = api_env
        Scheduler(api)
        # Both pods are created while no node exists, so both are pending;
        # the node that then appears fits only one of them.
        low = make_pod("low", cpu=2)
        high = make_pod("high", cpu=2)
        high.spec.priority = 100
        api.create("Pod", low)
        api.create("Pod", high)
        api.create("Node", Node.build("n1", cpu=2.5, memory="8Gi"))
        assert high.node_name == "n1"
        assert low.node_name is None

    def test_pending_pod_scheduled_when_capacity_frees(self, api_env):
        env, api = api_env
        Scheduler(api)
        api.create("Node", Node.build("n1", cpu=2.5, memory="8Gi"))
        blocker = api.create("Pod", make_pod("blocker", cpu=2))
        waiting = api.create("Pod", make_pod("waiting", cpu=2))
        assert waiting.node_name is None
        blocker.phase = PodPhase.SUCCEEDED
        api.touch("Pod", blocker)
        assert waiting.node_name == "n1"

    def test_utilization_report(self, api_env):
        env, api = api_env
        scheduler = Scheduler(api)
        api.create("Node", Node.build("n1", cpu=4, memory="8Gi"))
        api.create("Pod", make_pod("p1", cpu=2, memory="4Gi"))
        utilization = scheduler.utilization()["n1"]
        assert 0.4 < utilization["cpu"] < 0.7


class TestKubeletAndJobs:
    def _cluster(self, env, cpu=8, memory="16Gi"):
        api = ApiServer(clock=lambda: env.now)
        Scheduler(api)
        node = Node.build("n1", cpu=cpu, memory=memory)
        api.create("Node", node)
        kubelet = Kubelet(env, api, node)
        jobs = JobController(env, api)
        return api, kubelet, jobs

    def test_pod_lifecycle_to_succeeded(self, env):
        api, kubelet, jobs = self._cluster(env)
        job = jobs.create_job(pod_spec(duration=5.0))
        env.run(until=job.completion)
        assert job.is_complete
        pods = jobs.pods_for(job)
        assert pods[0].phase == PodPhase.SUCCEEDED
        assert pods[0].runtime() == pytest.approx(5.0)

    def test_failing_workload_fails_job(self, env):
        api, kubelet, jobs = self._cluster(env)

        def broken(pod):
            raise RuntimeError("segfault")

        spec = PodSpec(containers=[Container(name="bad", workload=broken, startup_delay_s=0.0)])
        job = jobs.create_job(spec, backoff_limit=0)
        env.run(until=job.completion)
        assert job.is_failed
        assert jobs.pods_for(job)[0].phase == PodPhase.FAILED

    def test_backoff_limit_retries_failed_pods(self, env):
        api, kubelet, jobs = self._cluster(env)
        attempts = {"count": 0}

        def flaky(pod):
            attempts["count"] += 1
            if attempts["count"] < 3:
                return WorkloadResult(duration_s=1.0, error="transient")
            return WorkloadResult(duration_s=1.0)

        spec = PodSpec(containers=[Container(name="flaky", workload=flaky, startup_delay_s=0.0)])
        job = jobs.create_job(spec, backoff_limit=5)
        env.run(until=job.completion)
        assert job.is_complete
        assert attempts["count"] == 3
        assert job.status.failed == 2

    def test_workload_error_result_marks_pod_failed(self, env):
        api, kubelet, jobs = self._cluster(env)
        spec = PodSpec(containers=[Container(
            name="oops", workload=lambda pod: WorkloadResult(duration_s=2.0, error="disk full"),
            startup_delay_s=0.0)])
        job = jobs.create_job(spec)
        env.run(until=job.completion)
        assert job.is_failed
        assert "disk full" in jobs.pods_for(job)[0].message

    def test_parallel_job_completions(self, env):
        api, kubelet, jobs = self._cluster(env)
        job = jobs.create_job(pod_spec(duration=3.0, cpu="500m", memory="256Mi"),
                              completions=3, parallelism=3)
        env.run(until=job.completion)
        assert job.is_complete
        assert job.status.succeeded == 3

    def test_node_failure_fails_running_pods(self, env):
        api, kubelet, jobs = self._cluster(env)
        job = jobs.create_job(pod_spec(duration=1000.0))
        env.run(until=10.0)
        assert jobs.pods_for(job)[0].phase == PodPhase.RUNNING
        affected = kubelet.node_failure()
        env.run(until=15.0)
        assert affected >= 1
        assert job.is_failed

    def test_infinite_workload_stays_running(self, env):
        api, kubelet, jobs = self._cluster(env)
        deployments = DeploymentController(env, api)
        spec = PodSpec(containers=[Container(name="svc", workload=math.inf, startup_delay_s=0.0)])
        deployments.create_deployment(spec, name="svc", replicas=1)
        env.run(until=50.0)
        pods = api.list("Pod")
        assert pods and all(pod.phase == PodPhase.RUNNING for pod in pods)

    def test_job_active_deadline(self, env):
        api, kubelet, jobs = self._cluster(env)
        job = jobs.create_job(pod_spec(duration=1000.0), active_deadline_s=10.0)
        env.run(until=job.completion)
        assert job.is_failed
        assert "deadline" in job.status.message


class TestDeploymentController:
    def _setup(self, env):
        api = ApiServer(clock=lambda: env.now)
        Scheduler(api)
        node = Node.build("n1", cpu=16, memory="64Gi")
        api.create("Node", node)
        Kubelet(env, api, node)
        return api, DeploymentController(env, api)

    def test_maintains_replica_count(self, env):
        api, controller = self._setup(env)
        spec = PodSpec(containers=[Container(name="web", workload=math.inf, startup_delay_s=0.0)])
        deployment = controller.create_deployment(spec, name="web", replicas=3)
        env.run(until=5.0)
        assert deployment.ready_replicas == 3
        assert len(api.list("Pod")) == 3

    def test_replaces_finished_pods(self, env):
        api, controller = self._setup(env)
        spec = PodSpec(containers=[Container(name="crashy", workload=5.0, startup_delay_s=0.0)])
        controller.create_deployment(spec, name="crashy", replicas=1)
        env.run(until=30.0)
        # The original pod finished after 5 s and was replaced at least once.
        assert controller.pods_created >= 2

    def test_scale_up_and_down(self, env):
        api, controller = self._setup(env)
        spec = PodSpec(containers=[Container(name="web", workload=math.inf, startup_delay_s=0.0)])
        deployment = controller.create_deployment(spec, name="web", replicas=1)
        env.run(until=2.0)
        controller.scale(deployment, 3)
        env.run(until=4.0)
        live = [p for p in api.list("Pod") if not p.is_terminal]
        assert len(live) == 3
        controller.scale(deployment, 1)
        env.run(until=6.0)
        live = [p for p in api.list("Pod") if not p.is_terminal]
        assert len(live) == 1
