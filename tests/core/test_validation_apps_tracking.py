"""Tests for validators, application runners, job tracking, caching and prediction."""

import pytest

from repro.cluster.apiserver import ApiServer
from repro.cluster.storage import NFSServer, StorageController
from repro.core.applications import (
    BlastApplication,
    CompressApplication,
    SleepApplication,
)
from repro.core.caching import CAPACITY, ResultCache
from repro.core.jobs import JobTracker
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
    storage = StorageController(api, NFSServer("nfs"))
    pvc = storage.create_pvc("pvc")
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

    def test_blast_knows_a_sample_from_the_registry_or_the_lake(self, env):
        api = ApiServer()
        pvc = StorageController(api, NFSServer("nfs")).create_pvc("p")
        lake = DataLake(pvc)
        lake.publish_placeholder("SRR0000042", 1_000)
        validator = BlastValidator()
        # In the registry but not loaded, and loaded but not registered.
        for srr in ("SRR2931415", "SRR0000042"):
            assert validator.validate(
                ComputeRequest(app="BLAST", dataset=srr, reference="HUMAN"), lake).ok
        assert not validator.validate(
            ComputeRequest(app="BLAST", dataset="SRR0000042", reference="HUMAN")).ok

    def test_compression_has_different_rules(self, lake):
        validator = CompressionValidator()
        assert validator.validate(ComputeRequest(app="COMPRESS", dataset="small-file"), lake).ok
        assert not validator.validate(ComputeRequest(app="COMPRESS"), lake).ok
        assert not validator.validate(
            ComputeRequest(app="COMPRESS", dataset="missing"), lake).ok
        # The level range is the COMPRESS schema's check, on the admission path.
        services = ServiceRegistry.with_defaults()
        for level in ("11", "max"):
            bad_level = ComputeRequest(app="COMPRESS", dataset="small-file", params={"level": level})
            assert not services.validate(bad_level, lake).ok
        good_level = ComputeRequest(app="COMPRESS", dataset="small-file", params={"level": "9"})
        assert services.validate(good_level, lake).ok

    @pytest.mark.parametrize("level, ok", [
        ("1", True), ("9", True), ("0", False), ("10", False), ("4.5", False),
    ])
    def test_compress_level_is_checked_once_by_the_schema(self, lake, level, ok):
        request = ComputeRequest(app="COMPRESS", dataset="small-file", params={"level": level})
        result = ServiceRegistry.with_defaults().validate(request, lake)
        assert result.ok is ok
        if not ok:
            assert "level" in result.message

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
        assert services.validate(ComputeRequest(app="CUSTOM"), lake).ok
        services.register(ServiceDefinition(name="CUSTOM", runner=SleepApplication(),
                                            validator=RejectAll()))
        assert not services.validate(ComputeRequest(app="CUSTOM"), lake).ok


class TestApplications:
    def test_registry_defaults(self):
        services = ServiceRegistry.with_defaults()
        assert all(services.try_get(app) is not None for app in ("BLAST", "COMPRESS", "SLEEP"))
        with pytest.raises(UnknownApplication):
            services.get("MISSING")

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
        tool.load_synthetic_datasets(lake)
        app = BlastApplication(model=BlastRuntimeModel(registry=tool.registry), registry=tool.registry)
        request = ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                                 dataset="SRR0000001", reference="synthetic-reference")
        result = app.build_pod_spec(request, lake).containers[0].run_workload(None)
        assert result.error is None
        assert result.output["aligner"] == "seed-and-extend"
        assert result.output["aligned_reads"] >= 175  # of 200 reads per synthetic sample
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
        assert 0 < result.output["result_size_bytes"] < lake.get_record("small-file").size_bytes
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
        assert record.finished_at - record.submitted_at == 30.0

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
        assert len(tracker) == 2
        assert len(tracker.active()) == 1
        assert len(tracker.records(JobState.COMPLETED)) == 1
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
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_ignores_resource_differences(self):
        cache = ResultCache()
        small = ComputeRequest(app="BLAST", cpu=2, memory_gb=4, dataset="S", reference="H")
        big = ComputeRequest(app="BLAST", cpu=16, memory_gb=64, dataset="S", reference="H")
        cache.store(small, Name("/out"), 1, "job")
        assert cache.lookup(big) is not None

    def test_lru_eviction(self):
        cache = ResultCache()
        requests = [ComputeRequest(app="A", dataset=f"d{i}") for i in range(CAPACITY + 1)]
        for index, request in enumerate(requests[:2]):
            cache.store(request, Name(f"/out/{index}"), 1, f"job-{index}")
        assert cache.lookup(requests[0]) is not None  # d0 is now the most recent
        for index, request in enumerate(requests[2:], start=2):
            cache.store(request, Name(f"/out/{index}"), 1, f"job-{index}")
        # One entry past capacity evicted the least recently used: d1, not d0.
        assert CAPACITY == 1024
        assert len(cache) == CAPACITY
        assert cache.evictions == 1
        assert cache.lookup(requests[1]) is None
        assert cache.lookup(requests[0]) is not None
        assert cache.lookup(requests[-1]) is not None

    def test_stats_shape(self):
        """The counters the cache report used to gather start at zero."""
        cache = ResultCache()
        assert (len(cache), cache.hits, cache.misses, cache.insertions, cache.evictions) == (
            0, 0, 0, 0, 0)
