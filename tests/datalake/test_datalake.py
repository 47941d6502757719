"""Tests for the data lake: catalogue, repo, file server and loading tool."""

import json

import pytest

from repro.exceptions import DataLakeError, DatasetNotFound, InterestNacked
from repro.cluster.apiserver import ApiServer
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.storage import NFSServer, StorageController
from repro.datalake.catalog import DataCatalog, DatasetKind, DatasetRecord
from repro.datalake.fileserver import FRESHNESS_PERIOD, FileServer
from repro.datalake.loader import DataLoadingTool
from repro.datalake.repo import DataLake
from repro.ndn.client import Consumer
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name


@pytest.fixture
def lake(env):
    api = ApiServer(clock=lambda: env.now)
    storage = StorageController(api, NFSServer("nfs"))
    pvc = storage.create_pvc("datalake-pvc")
    return DataLake(pvc, name="test-lake", clock=lambda: env.now)


class TestCatalog:
    def test_register_and_get(self):
        catalog = DataCatalog()
        record = DatasetRecord(
            dataset_id="x", kind=DatasetKind.REFERENCE, size_bytes=10,
            storage_path="datasets/x", content_name=Name("/ndn/k8s/data/x"),
        )
        catalog.register(record)
        assert catalog.get("x") is record
        assert "x" in catalog and len(catalog) == 1

    def test_missing_dataset_raises(self):
        with pytest.raises(DatasetNotFound):
            DataCatalog().get("missing")

    def test_records_filtered_by_kind(self):
        catalog = DataCatalog()
        for index, kind in enumerate([DatasetKind.RESULT, DatasetKind.REFERENCE, DatasetKind.RESULT]):
            catalog.register(DatasetRecord(
                dataset_id=f"d{index}", kind=kind, size_bytes=index,
                storage_path=f"p{index}", content_name=Name(f"/ndn/k8s/data/d{index}"),
            ))
        assert len(catalog.records(DatasetKind.RESULT)) == 2
        assert catalog.total_bytes() == 3

    def test_listing_shape(self):
        catalog = DataCatalog()
        catalog.register(DatasetRecord(
            dataset_id="x", kind=DatasetKind.OTHER, size_bytes=5,
            storage_path="p", content_name=Name("/ndn/k8s/data/x"),
        ))
        listing = catalog.listing()
        assert listing["count"] == 1
        assert listing["datasets"][0]["dataset_id"] == "x"

    def test_manifest_is_json_serialisable(self):
        record = DatasetRecord(
            dataset_id="x", kind=DatasetKind.SRA_SAMPLE, size_bytes=5,
            storage_path="p", content_name=Name("/ndn/k8s/data/x"), metadata={"a": "b"},
        )
        manifest = json.loads(record.manifest_bytes())
        assert manifest["dataset_id"] == "x"
        assert manifest["metadata"] == {"a": "b"}


class TestDataLake:
    def test_publish_bytes_and_read_back(self, lake):
        record = lake.publish_bytes("sample", b"ACGT", kind=DatasetKind.SRA_SAMPLE)
        assert record.has_payload
        assert lake.read_bytes("sample") == b"ACGT"
        assert record.size_bytes == 4
        assert str(record.content_name) == "/ndn/k8s/data/sample"

    def test_publish_placeholder(self, lake):
        record = lake.publish_placeholder("human-reference", 3_200_000_000,
                                          kind=DatasetKind.REFERENCE)
        assert not record.has_payload
        assert record.size_bytes == 3_200_000_000
        with pytest.raises(DataLakeError):
            lake.read_bytes("human-reference")

    def test_manifest_for_any_dataset(self, lake):
        lake.publish_placeholder("big", 100)
        manifest = json.loads(lake.get_record("big").manifest_bytes())
        assert manifest["size_bytes"] == 100
        assert manifest["has_payload"] is False

    def test_publish_result_with_payload_and_size(self, lake):
        with_payload = lake.publish_result("job-1-output", payload=b"result", source_job="job-1")
        assert with_payload.kind == DatasetKind.RESULT
        sized = lake.publish_result("job-2-output", size_bytes=941_000_000, source_job="job-2")
        assert not sized.has_payload
        with pytest.raises(DataLakeError):
            lake.publish_result("job-3-output")

    def test_stats(self, lake):
        lake.publish_bytes("a", b"12345")
        assert lake.read_bytes("a") == b"12345"
        assert len(lake.catalog) == 1
        assert lake.publish_count == 1


class TestFileServer:
    @pytest.fixture
    def served_lake(self, env, lake):
        forwarder = Forwarder(env, "dl-nfd", cache_unsolicited=True)
        server = FileServer(env, forwarder, lake, segment_size=1024)
        consumer = Consumer(env, forwarder)
        return lake, server, consumer

    def test_manifest_request(self, env, served_lake):
        lake, server, consumer = served_lake
        lake.publish_bytes("sample", b"ACGT" * 100)
        data = env.run(until=consumer.express_interest("/ndn/k8s/data/sample"))
        manifest = json.loads(data.content_text())
        assert manifest["dataset_id"] == "sample"
        assert manifest["size_bytes"] == 400

    def test_segment_fetch_reassembles_payload(self, env, served_lake):
        lake, server, consumer = served_lake
        payload = bytes(range(256)) * 20
        lake.publish_bytes("blob", payload)

        def fetch():
            content = yield from consumer.fetch_segments("/ndn/k8s/data/blob")
            return content

        assert env.run_process(fetch()) == payload

    def test_catalog_listing_request(self, env, served_lake):
        lake, server, consumer = served_lake
        lake.publish_bytes("one", b"1")
        lake.publish_placeholder("two", 100)
        data = env.run(until=consumer.express_interest("/ndn/k8s/data/_catalog"))
        listing = json.loads(data.content_text())
        assert listing["count"] == 2

    def test_unknown_dataset_nacked(self, env, served_lake):
        _, _, consumer = served_lake
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/ndn/k8s/data/missing", lifetime=1.0))

    def test_out_of_range_segment_nacked(self, env, served_lake):
        lake, _, consumer = served_lake
        lake.publish_bytes("tiny", b"x")
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/ndn/k8s/data/tiny/seg=99", lifetime=1.0))

    @pytest.mark.parametrize("component", [
        "seg=abc",        # not a number: raised ValueError out of env.run
        "seg=-1",         # negative: answered with the last segment, under another name
        "seg=01",         # not canonical: answered with segment 1, under another name
        "seg=1/extra",    # trailing components: answered with segment 1
    ])
    def test_malformed_segment_name_is_nacked(self, env, served_lake, component):
        lake, server, consumer = served_lake
        lake.publish_bytes("blob", bytes(3000))  # three 1 KiB segments
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest(
                f"/ndn/k8s/data/blob/{component}", lifetime=1.0))
        assert server.requests_failed == 1
        # The malformed Interest disturbs nothing: the well-formed name is served.
        data = env.run(until=consumer.express_interest("/ndn/k8s/data/blob/seg=1"))
        assert str(data.name) == "/ndn/k8s/data/blob/seg=1"

    def test_a_republished_dataset_is_served_afresh(self, env, served_lake):
        """Once the old copies are stale, a re-published dataset's segments
        are cut from the new payload, as its manifest already says."""
        lake, _, consumer = served_lake

        def fetch(suffix):
            return env.run(until=consumer.express_interest(
                f"/ndn/k8s/data/ds{suffix}", must_be_fresh=True))

        lake.publish_bytes("ds", b"A" * 20000)
        assert json.loads(fetch("").content_text())["size_bytes"] == 20000
        assert bytes(fetch("/seg=0").content).startswith(b"AAA")
        lake.publish_bytes("ds", b"B" * 12000)
        env.run(until=env.now + 2 * FRESHNESS_PERIOD)
        assert json.loads(fetch("").content_text())["size_bytes"] == 12000
        assert bytes(fetch("/seg=0").content) == b"B" * 1024

    def test_stats(self, env, served_lake):
        lake, server, consumer = served_lake
        lake.publish_bytes("x", b"1")
        env.run(until=consumer.express_interest("/ndn/k8s/data/x"))
        assert server.stats()["requests_served"] >= 1

    def test_only_answered_requests_count_as_served(self, env, served_lake):
        """A refused request is counted as failed, never also as served."""
        lake, server, consumer = served_lake
        lake.publish_bytes("x", b"1")
        env.run(until=consumer.express_interest("/ndn/k8s/data/x"))
        for refused in ("/ndn/k8s/data/missing", "/ndn/k8s/data/x/seg=9",
                        "/ndn/k8s/data/x/unknown"):
            with pytest.raises(InterestNacked):
                env.run(until=consumer.express_interest(refused, lifetime=1.0))
        stats = server.stats()
        assert (stats["requests_served"], stats["requests_failed"]) == (1, 3)

    def test_segments_are_the_ones_segment_data_makes(self, env, served_lake, segment_all):
        """Segments built one at a time on request follow the one segment
        rule: byte-identical to segment_data's, empty content included."""
        lake, server, consumer = served_lake
        for dataset, payload in (("blob", bytes(range(256)) * 9), ("empty", b"")):
            lake.publish_bytes(dataset, payload)
            expected = segment_all(
                lake.content_name(dataset), payload, segment_size=1024,
                freshness_period=FRESHNESS_PERIOD,
            )
            for index in reversed(range(len(expected))):
                data = env.run(until=consumer.express_interest(
                    f"/ndn/k8s/data/{dataset}/seg={index}"))
                assert data.encode() == expected[index].encode()
        assert len(expected) == 1 and data.content == b""
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/ndn/k8s/data/empty/seg=1", lifetime=1.0))


class TestDataLoadingTool:
    @pytest.fixture
    def cluster(self, env):
        return Cluster(env, ClusterSpec(name="alpha", node_count=1))

    def test_paper_datasets_loaded(self, env, cluster):
        tool = DataLoadingTool(cluster)
        lake = tool.create_datalake()
        report = tool.load_paper_datasets(lake)
        assert "human-reference" in report.datasets_loaded
        assert "SRR2931415" in report.datasets_loaded
        assert "SRR5139395" in report.datasets_loaded
        assert lake.get_record("human-reference").size_bytes > 10**9
        assert lake.get_record("SRR5139395").kind == DatasetKind.SRA_SAMPLE
        assert report.total_bytes == lake.catalog.total_bytes()

    def test_synthetic_datasets_materialised(self, env, cluster):
        tool = DataLoadingTool(cluster, seed=7)
        lake = tool.create_datalake(pvc_name="synthetic-pvc")
        report = tool.load_synthetic_datasets(lake)
        assert "synthetic-reference" in report.datasets_loaded
        reference = lake.read_bytes("synthetic-reference")
        assert reference.startswith(b">")
        fastq = lake.read_bytes("SRR0000001")
        assert fastq.count(b"@SRR0000001") == 200
        # Synthetic accessions are registered so the BLAST validator accepts them.
        assert "SRR0000001" in tool.registry

    def test_loading_is_deterministic(self, env, cluster):
        lake_a = DataLoadingTool(cluster, seed=9).create_datalake(pvc_name="a")
        lake_b = DataLoadingTool(cluster, seed=9).create_datalake(pvc_name="b")
        DataLoadingTool(cluster, seed=9).load_synthetic_datasets(lake_a)
        DataLoadingTool(cluster, seed=9).load_synthetic_datasets(lake_b)
        assert lake_a.read_bytes("synthetic-reference") == lake_b.read_bytes("synthetic-reference")
