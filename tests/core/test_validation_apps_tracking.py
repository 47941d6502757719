"""Tests for validators, application runners, job tracking, caching and prediction."""

import pytest

from repro.cluster.apiserver import ApiServer
from repro.cluster.storage import StorageController
from repro.core.applications import (
    BlastApplication,
    CompressApplication,
    SleepApplication,
)
from repro.core.caching import ResultCache
from repro.core.jobs import JobTracker
from repro.core.predictor import CompletionTimePredictor
from repro.core.spec import ComputeRequest, JobState
from repro.core.service import ServiceDefinition, ServiceRegistry
from repro.core.validation import BlastValidator, CompressionValidator, ValidationResult
from repro.datalake.loader import DataLoadingTool
from repro.datalake.repo import DataLake
from repro.exceptions import JobNotFound, UnknownApplication, ValidationFailure
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sra import SraRegistry
from repro.ndn.name import Name


@pytest.fixture
def lake(env):
    api = ApiServer(clock=lambda: env.now)
    storage = StorageController(api)
    pvc = storage.create_pvc("pvc", "100Gi")
    lake = DataLake(pvc)
    lake.publish_placeholder("SRR2931415", 1_600_000_000)
    lake.publish_bytes("small-file", b"compress me " * 100)
    return lake


class TestValidators:
    def test_blast_accepts_paper_request(self, lake):
        validator = BlastValidator(registry=SraRegistry())
        request = ComputeRequest(app="BLAST", dataset="SRR2931415", reference="HUMAN")
        assert validator.validate(request, lake).ok

    def test_blast_rejects_missing_srr(self, lake):
        validator = BlastValidator()
        result = validator.validate(ComputeRequest(app="BLAST", reference="HUMAN"), lake)
        assert not result.ok and "SRR" in result.message

    def test_blast_rejects_malformed_srr(self, lake):
        result = BlastValidator().validate(
            ComputeRequest(app="BLAST", dataset="not-an-id", reference="HUMAN"), lake)
        assert not result.ok and "malformed" in result.message

    def test_blast_rejects_unknown_srr(self, lake):
        result = BlastValidator().validate(
            ComputeRequest(app="BLAST", dataset="SRR7654321", reference="HUMAN"), lake)
        assert not result.ok and "unknown" in result.message.lower()

    def test_blast_rejects_missing_reference(self, lake):
        result = BlastValidator().validate(
            ComputeRequest(app="BLAST", dataset="SRR2931415"), lake)
        assert not result.ok and "reference" in result.message

    def test_blast_require_in_lake(self, env):
        api = ApiServer()
        pvc = StorageController(api).create_pvc("p", "1Gi")
        empty_lake = DataLake(pvc)
        validator = BlastValidator(require_in_lake=True)
        result = validator.validate(
            ComputeRequest(app="BLAST", dataset="SRR2931415", reference="HUMAN"), empty_lake)
        assert not result.ok and "not loaded" in result.message

    def test_compression_has_different_rules(self, lake):
        validator = CompressionValidator()
        assert validator.validate(ComputeRequest(app="COMPRESS", dataset="small-file"), lake).ok
        assert not validator.validate(ComputeRequest(app="COMPRESS"), lake).ok
        assert not validator.validate(
            ComputeRequest(app="COMPRESS", dataset="missing"), lake).ok
        bad_level = ComputeRequest(app="COMPRESS", dataset="small-file", params={"level": "11"})
        assert not validator.validate(bad_level, lake).ok
        not_int = ComputeRequest(app="COMPRESS", dataset="small-file", params={"level": "max"})
        assert not validator.validate(not_int, lake).ok

    def test_registry_routes_by_app_and_falls_back(self, lake):
        services = ServiceRegistry.with_defaults()
        # BLAST's validator runs whatever the spelling of the app name ...
        for app in ("BLAST", "blast", "MAGICBLAST"):
            result = services.validate(ComputeRequest(app=app, reference="HUMAN"), lake)
            assert not result.ok and "SRR" in result.message
        # ... and a request with no registered validator is accepted.
        assert services.validate(ComputeRequest(app="SLEEP"), lake).ok
        assert services.validate(ComputeRequest(app="UNKNOWN"), lake).ok

    def test_raise_if_failed(self, lake):
        result = BlastValidator().validate(ComputeRequest(app="BLAST"), lake)
        with pytest.raises(ValidationFailure):
            result.raise_if_failed()

    def test_register_custom_validator(self, lake):
        class RejectAll:
            def validate(self, request, datalake=None):
                return ValidationResult(False, "nope")

        services = ServiceRegistry.with_defaults()
        services.register(ServiceDefinition(name="CUSTOM", validator=RejectAll()))
        assert not services.validate(ComputeRequest(app="CUSTOM"), lake).ok
        services.unregister("CUSTOM")
        assert services.validate(ComputeRequest(app="CUSTOM"), lake).ok


class TestApplications:
    def test_registry_defaults(self):
        services = ServiceRegistry.with_defaults()
        assert all(services.has_app(app) for app in ("BLAST", "COMPRESS", "SLEEP"))
        assert "BLAST" in services.applications()
        with pytest.raises(UnknownApplication):
            services.runner_for("MISSING")

    def test_blast_modelled_workload_matches_table1(self, lake):
        registry = SraRegistry()
        app = BlastApplication(model=BlastRuntimeModel(registry=registry), registry=registry)
        request = ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                                 dataset="SRR2931415", reference="HUMAN")
        spec = app.build_pod_spec(request, lake)
        assert spec.total_requests().cpu == 2
        result = spec.containers[0].run_workload(None)
        assert result.duration_s == pytest.approx(29390.0)
        assert result.output["result_size_bytes"] == 941_000_000
        assert result.output["aligner"] == "modelled"

    def test_blast_real_aligner_on_synthetic_data(self, env):
        from repro.cluster.cluster import Cluster, ClusterSpec
        cluster = Cluster(env, ClusterSpec(name="c", node_count=1))
        tool = DataLoadingTool(cluster, seed=3)
        lake = tool.create_datalake()
        tool.load_synthetic_datasets(lake, genome_length=5_000, read_count=40)
        app = BlastApplication(model=BlastRuntimeModel(registry=tool.registry), registry=tool.registry)
        request = ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                                 dataset="SRR0000001", reference="synthetic-reference")
        result = app.build_pod_spec(request, lake).containers[0].run_workload(None)
        assert result.error is None
        assert result.output["aligner"] == "seed-and-extend"
        assert result.output["aligned_reads"] >= 35
        assert result.output["result_size_bytes"] > 0

    def test_blast_real_aligner_missing_reference_fails(self, lake):
        registry = SraRegistry()
        registry.register_synthetic("SRR0009999", genome_type="T", read_count=10)
        lake.publish_bytes("SRR0009999", b"@r\nACGT\n+\nIIII\n")
        app = BlastApplication(model=BlastRuntimeModel(registry=registry), registry=registry)
        request = ComputeRequest(app="BLAST", dataset="SRR0009999", reference="nonexistent-ref")
        result = app.build_pod_spec(request, lake).containers[0].run_workload(None)
        assert result.error is not None

    def test_compress_real_payload(self, lake):
        app = CompressApplication()
        request = ComputeRequest(app="COMPRESS", dataset="small-file", params={"level": "9"})
        result = app.build_pod_spec(request, lake).containers[0].run_workload(None)
        assert result.error is None
        assert 0 < result.output["result_size_bytes"] < lake.size_of("small-file")
        assert result.output["compression_ratio"] < 1

    def test_compress_placeholder_modelled(self, lake):
        lake.publish_placeholder("huge", 10**9)
        result = CompressApplication().build_pod_spec(
            ComputeRequest(app="COMPRESS", dataset="huge"), lake
        ).containers[0].run_workload(None)
        assert result.output["result_size_bytes"] == int(10**9 / 3.2)
        assert result.duration_s > 1.0

    def test_compress_missing_dataset(self, lake):
        result = CompressApplication().build_pod_spec(
            ComputeRequest(app="COMPRESS", dataset="nope"), lake
        ).containers[0].run_workload(None)
        assert result.error is not None

    def test_sleep_duration_from_params(self, lake):
        result = SleepApplication().build_pod_spec(
            ComputeRequest(app="SLEEP", params={"duration": "42"}), lake
        ).containers[0].run_workload(None)
        assert result.duration_s == 42.0


class TestJobTracker:
    def test_job_ids_unique_and_cluster_scoped(self):
        tracker = JobTracker("cluster-a")
        first = tracker.new_job(ComputeRequest(app="SLEEP"))
        second = tracker.new_job(ComputeRequest(app="SLEEP"))
        assert first.job_id != second.job_id
        assert first.job_id.startswith("cluster-a-job-")
        assert len(tracker) == 2

    def test_lifecycle_marks(self):
        clock = {"now": 0.0}
        tracker = JobTracker("c", clock=lambda: clock["now"])
        record = tracker.new_job(ComputeRequest(app="SLEEP"))
        clock["now"] = 5.0
        tracker.mark_running(record.job_id)
        clock["now"] = 30.0
        tracker.mark_completed(record.job_id, result_name=Name("/ndn/k8s/data/out"), result_size_bytes=10)
        assert record.state == JobState.COMPLETED
        assert record.runtime() == 25.0
        assert record.turnaround() == 30.0

    def test_mark_failed(self):
        tracker = JobTracker("c")
        record = tracker.new_job(ComputeRequest(app="SLEEP"))
        tracker.mark_failed(record.job_id, "boom")
        assert record.state == JobState.FAILED
        assert record.error == "boom"

    def test_unknown_job_raises(self):
        tracker = JobTracker("c")
        with pytest.raises(JobNotFound):
            tracker.get("nope")
        assert tracker.try_get("nope") is None

    def test_queries_and_stats(self):
        tracker = JobTracker("c")
        a = tracker.new_job(ComputeRequest(app="SLEEP"))
        b = tracker.new_job(ComputeRequest(app="SLEEP"))
        tracker.mark_completed(a.job_id)
        stats = tracker.stats()
        assert stats["total"] == 2
        assert stats["completed"] == 1
        assert len(tracker.active()) == 1
        assert len(tracker.completed()) == 1
        assert len(tracker.records(JobState.PENDING)) == 1


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        request = ComputeRequest(app="BLAST", dataset="S", reference="H")
        assert cache.lookup(request) is None
        cache.store(request, Name("/ndn/k8s/data/out"), 100, "job-1")
        hit = cache.lookup(request)
        assert hit is not None
        assert str(hit.result_name) == "/ndn/k8s/data/out"
        assert cache.hit_ratio == 0.5

    def test_hit_ignores_resource_differences(self):
        cache = ResultCache()
        small = ComputeRequest(app="BLAST", cpu=2, memory_gb=4, dataset="S", reference="H")
        big = ComputeRequest(app="BLAST", cpu=16, memory_gb=64, dataset="S", reference="H")
        cache.store(small, Name("/out"), 1, "job")
        assert cache.lookup(big) is not None

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        requests = [ComputeRequest(app="A", dataset=f"d{i}") for i in range(3)]
        for index, request in enumerate(requests):
            cache.store(request, Name(f"/out/{index}"), 1, f"job-{index}")
        assert cache.lookup(requests[0]) is None
        assert cache.lookup(requests[2]) is not None
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        request = ComputeRequest(app="A", dataset="d")
        assert cache.store(request, Name("/out"), 1, "job") is None
        assert cache.lookup(request) is None

    def test_stats_shape(self):
        stats = ResultCache().stats()
        assert set(stats) >= {"size", "hits", "misses", "hit_ratio"}


class TestPredictor:
    def test_untrained_returns_none(self):
        predictor = CompletionTimePredictor()
        assert predictor.predict(ComputeRequest(app="BLAST")) is None
        assert not predictor.is_trained("BLAST")

    def test_fallback_mean_before_enough_examples(self):
        predictor = CompletionTimePredictor(min_examples=5)
        predictor.observe(ComputeRequest(app="SLEEP"), 100.0)
        assert predictor.predict(ComputeRequest(app="SLEEP")) == pytest.approx(100.0)

    def test_learns_inverse_cpu_relationship(self):
        predictor = CompletionTimePredictor(min_examples=3)
        for cpu in (1, 2, 4, 8):
            runtime = 100.0 + 1000.0 / cpu
            predictor.observe(ComputeRequest(app="SLEEP", cpu=cpu), runtime)
        assert predictor.is_trained("SLEEP")
        predicted = predictor.predict(ComputeRequest(app="SLEEP", cpu=16))
        assert predicted == pytest.approx(100.0 + 1000.0 / 16, rel=0.1)
        assert predictor.mean_absolute_error("SLEEP") < 5.0

    def test_per_application_models_are_separate(self):
        predictor = CompletionTimePredictor(min_examples=1)
        predictor.observe(ComputeRequest(app="FAST"), 10.0)
        predictor.observe(ComputeRequest(app="SLOW"), 10_000.0)
        assert predictor.predict(ComputeRequest(app="FAST")) < predictor.predict(
            ComputeRequest(app="SLOW"))
        assert sorted(predictor.applications()) == ["FAST", "SLOW"]

    def test_observe_record_requires_runtime(self):
        from repro.core.spec import JobRecord
        predictor = CompletionTimePredictor()
        record = JobRecord(job_id="j", request=ComputeRequest(app="X"), cluster="c")
        assert predictor.observe_record(record) is None
        record.started_at, record.finished_at = 0.0, 50.0
        assert predictor.observe_record(record) is not None

    def test_prediction_never_negative(self):
        predictor = CompletionTimePredictor(min_examples=2)
        predictor.observe(ComputeRequest(app="X", cpu=1), 1.0)
        predictor.observe(ComputeRequest(app="X", cpu=2), 0.5)
        predictor.observe(ComputeRequest(app="X", cpu=4), 0.1)
        assert predictor.predict(ComputeRequest(app="X", cpu=1000)) >= 0.0
