"""Tests for nodes, pods, the scheduler, kubelets and job/deployment controllers."""

import math

import pytest

from repro.cluster.apiserver import ApiServer
from repro.cluster.deployment import DeploymentController
from repro.cluster.job import JobController
from repro.cluster.kubelet import Kubelet
from repro.cluster.node import Node
from repro.cluster.objects import ObjectMeta
from repro.cluster.pod import Container, Pod, PodPhase, PodSpec, ResourceRequirements, WorkloadResult
from repro.cluster.scheduler import Scheduler
from repro.sim.engine import Environment


def pod_spec(cpu="1", memory="1Gi", duration=10.0, name="work"):
    return PodSpec(
        containers=[Container(
            name=name,
            resources=ResourceRequirements.of(cpu=cpu, memory=memory),
            workload=duration,
            startup_delay_s=0.0,
        )],
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

    def test_times_unset_until_the_kubelet_runs_the_pod(self):
        pod = make_pod("p")
        assert pod.start_time is None and pod.finish_time is None


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

    def test_pending_pods_bind_in_creation_order(self, api_env):
        env, api = api_env
        Scheduler(api)
        # Both pods are created while no node exists, so both are pending;
        # the node that then appears fits only one of them: the older one.
        env.run(until=1.0)
        older = api.create("Pod", make_pod("older", cpu=2))
        env.run(until=2.0)
        newer = api.create("Pod", make_pod("newer", cpu=2))
        api.create("Node", Node.build("n1", cpu=2.5, memory="8Gi"))
        assert older.node_name == "n1"
        assert newer.node_name is None

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

    def test_free_capacity_counts_bound_pods(self, api_env):
        env, api = api_env
        scheduler = Scheduler(api)
        api.create("Node", Node.build("n1", cpu=4, memory="8Gi"))
        api.create("Pod", make_pod("p1", cpu=2, memory="4Gi"))
        free = scheduler.node_free_capacity(api.get("Node", "n1"))
        assert free.cpu == pytest.approx(3.75 - 2)
        assert free.memory == 8 * 1024**3 - 512 * 1024**2 - 4 * 1024**3


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
        job = jobs.create_job(pod_spec(duration=5.0), name="ok")
        env.run(until=job.completion)
        assert job.is_complete
        assert job.pod.phase == PodPhase.SUCCEEDED
        assert job.pod.finish_time - job.pod.start_time == pytest.approx(5.0)

    def test_failing_workload_fails_job(self, env):
        api, kubelet, jobs = self._cluster(env)

        def broken(pod):
            raise RuntimeError("segfault")

        spec = PodSpec(containers=[Container(name="bad", workload=broken, startup_delay_s=0.0)])
        job = jobs.create_job(spec, name="crash")
        env.run(until=job.completion)
        assert job.is_failed
        assert job.pod.phase == PodPhase.FAILED
        assert job.status.message == "bad: segfault"

    def test_a_job_runs_exactly_one_pod(self, env):
        """The one-pod contract: the job ends with its pod, success or failure,
        and a failed pod is not retried."""
        api, kubelet, jobs = self._cluster(env)
        attempts = {"count": 0}

        def flaky(pod):
            attempts["count"] += 1
            return WorkloadResult(duration_s=1.0, error="transient")

        spec = PodSpec(containers=[Container(name="flaky", workload=flaky, startup_delay_s=0.0)])
        failed = jobs.create_job(spec, name="flaky")
        done = jobs.create_job(pod_spec(duration=3.0, cpu="500m", memory="256Mi"), name="done")
        env.run(until=10.0)
        assert failed.completion.triggered and done.completion.triggered
        assert failed.is_failed and failed.status.message == "flaky: transient"
        assert done.is_complete and done.pod.phase == PodPhase.SUCCEEDED
        assert attempts["count"] == 1
        assert [pod.metadata.labels["job-name"] for pod in api.list("Pod")] == ["flaky", "done"]
        env.run(until=env.now + 100.0)
        assert len(api.list("Pod")) == 2

    def test_workload_error_result_marks_pod_failed(self, env):
        api, kubelet, jobs = self._cluster(env)
        spec = PodSpec(containers=[Container(
            name="oops", workload=lambda pod: WorkloadResult(duration_s=2.0, error="disk full"),
            startup_delay_s=0.0)])
        job = jobs.create_job(spec, name="oops")
        env.run(until=job.completion)
        assert job.is_failed
        assert "disk full" in job.pod.message

    def test_infinite_workload_stays_running(self, env):
        api, kubelet, jobs = self._cluster(env)
        deployments = DeploymentController(env, api)
        spec = PodSpec(containers=[Container(name="svc", workload=math.inf, startup_delay_s=0.0)])
        deployments.create_deployment(spec, name="svc")
        env.run(until=50.0)
        pods = api.list("Pod")
        assert pods and all(pod.phase == PodPhase.RUNNING for pod in pods)


class TestDeploymentController:
    def _setup(self, env):
        api = ApiServer(clock=lambda: env.now)
        Scheduler(api)
        node = Node.build("n1", cpu=16, memory="64Gi")
        api.create("Node", node)
        Kubelet(env, api, node)
        return api, DeploymentController(env, api)

    def test_keeps_one_running_replica(self, env):
        api, controller = self._setup(env)
        spec = PodSpec(containers=[Container(name="web", workload=math.inf, startup_delay_s=0.0)])
        controller.create_deployment(spec, name="web")
        env.run(until=5.0)
        assert [pod.phase for pod in api.list("Pod")] == [PodPhase.RUNNING]
        assert api.list("Pod")[0].metadata.labels == {"app": "web"}

    def test_replaces_finished_pods(self, env):
        api, controller = self._setup(env)
        spec = PodSpec(containers=[Container(name="crashy", workload=5.0, startup_delay_s=0.0)])
        deployment = controller.create_deployment(spec, name="crashy")
        env.run(until=30.0)
        # The original pod finished after 5 s and was replaced at least once.
        assert controller.pods_created >= 2
        assert controller.pods_replaced == controller.pods_created - 1
        assert [pod for pod in api.list("Pod") if not pod.is_terminal] == [deployment.pod]
