"""Microbenchmark ``micro_sched`` — cluster orchestrator performance.

Wall-clock microbenchmarks of the Kubernetes-equivalent substrate: scheduler
throughput on a busy cluster, job lifecycle latency through the simulated
control loops, and the gateway's admission path (validation + naming only).
"""

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.pod import Container, PodSpec, ResourceRequirements
from repro.core.spec import ComputeRequest
from repro.core.service import ServiceRegistry
from repro.genomics.sra import SraRegistry
from repro.sim.engine import Environment


def test_scheduler_places_200_pods(benchmark):
    def schedule_batch():
        env = Environment()
        cluster = Cluster(env, ClusterSpec(name="big", node_count=20, node_cpu=16,
                                           node_memory="64Gi"))
        spec = PodSpec(containers=[Container(
            name="w", resources=ResourceRequirements.of(cpu="500m", memory="512Mi"),
            workload=1.0, startup_delay_s=0.0)])
        jobs = [cluster.create_job(spec, name=f"job-{index}") for index in range(200)]
        env.run(until=60.0)
        return sum(1 for job in jobs if job.is_complete)

    completed = benchmark(schedule_batch)
    assert completed == 200


def test_job_lifecycle_simulated_latency(benchmark):
    def run_job():
        env = Environment()
        cluster = Cluster(env, ClusterSpec(name="one", node_count=1))
        spec = PodSpec(containers=[Container(
            name="w", resources=ResourceRequirements.of(cpu=1, memory="1Gi"),
            workload=30.0)])
        job = cluster.create_job(spec)
        env.run(until=job.completion)
        return job.duration()

    duration = benchmark(run_job)
    assert duration is not None and duration >= 30.0


def test_request_validation_and_naming_path(benchmark):
    registry = SraRegistry()
    services = ServiceRegistry.with_defaults(registry=registry)
    request = ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                             dataset="SRR2931415", reference="HUMAN")

    def validate_and_name():
        name = request.to_name()
        parsed = ComputeRequest.from_name(name)
        return services.validate(parsed, None).ok

    assert benchmark(validate_and_name)
