"""Tests for the HTTP(S)-based naming alternative (paper §II)."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.core import naming
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.http_naming import (
    HttpGatewayFacade,
    HttpRequest,
    request_to_url,
    url_to_request,
)
from repro.core.spec import ComputeRequest, JobState
from repro.exceptions import InvalidComputeName


class TestUrlMapping:
    def test_round_trip_matches_ndn_semantics(self):
        request = ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                                 dataset="SRR2931415", reference="HUMAN")
        url = request_to_url(request)
        assert url.startswith("https://lidc.example.org/ndn/k8s/compute?")
        parsed = url_to_request(url)
        assert parsed == request
        # The two naming schemes carry the same parameters.
        assert parsed.to_name() == request.to_name()

    def test_extra_params_survive(self):
        request = ComputeRequest(app="COMPRESS", dataset="file-1", params={"level": "9"})
        assert url_to_request(request_to_url(request)).params["level"] == "9"

    def test_non_compute_url_rejected(self):
        with pytest.raises(InvalidComputeName):
            url_to_request("https://lidc.example.org/ndn/k8s/data/x?app=BLAST")

    def test_empty_query_rejected(self):
        with pytest.raises(InvalidComputeName):
            url_to_request("https://lidc.example.org/ndn/k8s/compute")

    def test_duplicate_query_parameter_rejected(self):
        with pytest.raises(InvalidComputeName):
            url_to_request("https://x.org/ndn/k8s/compute?app=A&app=B&cpu=1&mem=1")

    @given(cpu=st.integers(min_value=1, max_value=64),
           mem=st.integers(min_value=1, max_value=512))
    def test_round_trip_property(self, cpu, mem):
        request = ComputeRequest(app="SLEEP", cpu=cpu, memory_gb=mem)
        assert url_to_request(request_to_url(request)) == request


class TestHttpGatewayFacade:
    @pytest.fixture
    def facade(self, env):
        cluster = LIDCCluster(env, ClusterSpec(name="http", node_count=1,
                                               node_cpu=8, node_memory="32Gi"))
        return env, cluster, HttpGatewayFacade(cluster.gateway)

    def test_submit_accepted(self, facade):
        env, cluster, http = facade
        response = http.handle(HttpRequest(
            method="POST", path="/ndn/k8s/compute",
            query={"app": "BLAST", "cpu": "2", "mem": "4",
                   "srr": "SRR2931415", "ref": "HUMAN"}))
        assert response.status == 202
        body = response.json()
        assert body["job_id"].startswith("http-job-")
        assert body["equivalent_ndn_name"].startswith("/ndn/k8s/compute/")

    def test_submit_validation_error_is_400(self, facade):
        env, cluster, http = facade
        response = http.handle(HttpRequest(
            method="POST", path="/ndn/k8s/compute",
            query={"app": "BLAST", "cpu": "2", "mem": "4", "srr": "bogus", "ref": "HUMAN"}))
        assert response.status == 400
        assert "malformed" in response.json()["error"]

    def test_submit_unknown_app_is_400(self, facade):
        env, cluster, http = facade
        response = http.handle(HttpRequest(
            method="POST", path="/ndn/k8s/compute", query={"app": "FOLD", "cpu": "1", "mem": "1"}))
        assert response.status == 400

    def test_submit_without_capacity_is_503(self, facade):
        env, cluster, http = facade
        query = {"app": "SLEEP", "cpu": "64", "mem": "4", "duration": "10"}
        response = http.handle(HttpRequest(method="POST", path="/ndn/k8s/compute", query=query))
        assert response.status == 503

    def test_status_lifecycle(self, facade):
        env, cluster, http = facade
        submit = http.handle(HttpRequest(
            method="POST", path="/ndn/k8s/compute",
            query={"app": "SLEEP", "cpu": "1", "mem": "1", "duration": "30"}))
        job_id = submit.json()["job_id"]
        env.run(until=env.now + 100)
        status = http.handle(HttpRequest(method="GET", path=f"/ndn/k8s/status/{job_id}"))
        assert status.status == 200
        assert status.json()["state"] == JobState.COMPLETED.value
        # The status URL mirrors the NDN status name and serves the same document.
        status_url = submit.json()["status_url"]
        assert status_url == str(naming.status_name(job_id))
        same = http.handle(HttpRequest(method="GET", path=status_url))
        assert same.json() == cluster.gateway.tracker.get(job_id).status_payload() == status.json()

    def test_status_unknown_job_is_404(self, facade):
        env, cluster, http = facade
        assert http.handle(HttpRequest(method="GET", path="/ndn/k8s/status/ghost")).status == 404

    def test_dataset_manifest_and_404(self, facade):
        env, cluster, http = facade
        ok = http.handle(HttpRequest(method="GET", path="/ndn/k8s/data/SRR2931415"))
        assert ok.status == 200
        assert ok.json()["dataset_id"] == "SRR2931415"
        missing = http.handle(HttpRequest(method="GET", path="/ndn/k8s/data/nope"))
        assert missing.status == 404

    def test_unknown_route_is_404(self, facade):
        env, cluster, http = facade
        assert http.handle(HttpRequest(method="GET", path="/metrics")).status == 404
        assert http.handle(HttpRequest(method="DELETE", path="/ndn/k8s/compute")).status == 404

    def test_url_property(self):
        request = HttpRequest(method="GET", path="/ndn/k8s/status/j1", query={"verbose": "1"})
        assert request.url == "/ndn/k8s/status/j1?verbose=1"
