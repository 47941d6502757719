"""Tests for the semantic naming scheme and request/job record types."""

import pytest
from hypothesis import given, strategies as st

from repro.core import naming
from repro.core.spec import ComputeRequest, JobRecord, JobState
from repro.exceptions import InvalidComputeName
from repro.ndn.name import Name
from repro.ndn.packet import encode_name_value


class TestParamEncoding:
    def test_encode_sorted_and_decoded(self):
        params = {"mem": 4, "cpu": 6, "app": "BLAST"}
        component = naming._encode_params(params)
        assert component == "app=BLAST&cpu=6&mem=4"
        assert naming._decode_params(component) == {"app": "BLAST", "cpu": "6", "mem": "4"}

    def test_empty_params_rejected(self):
        with pytest.raises(InvalidComputeName):
            naming._encode_params({})

    def test_values_with_special_characters_are_escaped(self):
        params = {"query": "a&b=c", "app": "X"}
        decoded = naming._decode_params(naming._encode_params(params))
        assert decoded["query"] == "a&b=c"

    def test_reserved_characters_in_keys_rejected(self):
        with pytest.raises(InvalidComputeName):
            naming._encode_params({"bad&key": "1"})

    def test_decode_malformed(self):
        with pytest.raises(InvalidComputeName):
            naming._decode_params("novalue")
        with pytest.raises(InvalidComputeName):
            naming._decode_params("=x")
        with pytest.raises(InvalidComputeName):
            naming._decode_params("a=1&a=2")
        with pytest.raises(InvalidComputeName):
            naming._decode_params("")

    @given(params=st.dictionaries(
        st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
        st.text(min_size=0, max_size=20), min_size=1, max_size=6))
    def test_round_trip_property(self, params):
        assert naming._decode_params(naming._encode_params(params)) == {
            key: str(value) for key, value in params.items()
        }


class TestNames:
    def test_compute_name_matches_paper_format(self):
        name = naming.compute_name({"mem": 4, "cpu": 6, "app": "BLAST"})
        assert str(name) == "/ndn/k8s/compute/app=BLAST&cpu=6&mem=4"
        assert naming.COMPUTE_PREFIX.is_prefix_of(name)

    def test_parse_compute_name(self):
        params = naming.parse_compute_name("/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&srr=SRR2931415")
        assert params == {"app": "BLAST", "cpu": "2", "mem": "4", "srr": "SRR2931415"}

    def test_parse_rejects_wrong_prefix_or_shape(self):
        with pytest.raises(InvalidComputeName):
            naming.parse_compute_name("/ndn/k8s/data/x")
        with pytest.raises(InvalidComputeName):
            naming.parse_compute_name("/ndn/k8s/compute")
        with pytest.raises(InvalidComputeName):
            naming.parse_compute_name("/ndn/k8s/compute/a=1/extra")

    def test_status_name_round_trip(self):
        name = naming.status_name("cluster-a-job-7")
        assert str(name) == "/ndn/k8s/status/cluster-a/7"  # the owner is its own component
        assert naming.parse_status_name(name) == "cluster-a-job-7"
        # Shorter on the wire than the flat form of the same id.
        flat = naming.STATUS_PREFIX.append("cluster-a-job-7")
        assert len(encode_name_value(name)) < len(encode_name_value(flat))
        # An id that is not ``<cluster>-job-<n>`` keeps the flat form, and both forms invert.
        for job_id in ("job-x", "x-job-", "-job-3", "cluster-a-job-7", "a-job-b-job-9"):
            assert naming.parse_status_name(naming.status_name(job_id)) == job_id
        assert str(naming.status_name("job-x")) == "/ndn/k8s/status/job-x"
        with pytest.raises(InvalidComputeName):
            naming.parse_status_name("/ndn/k8s/status/a/1/extra")
        with pytest.raises(InvalidComputeName):
            naming.status_name("")
        with pytest.raises(InvalidComputeName):
            naming.parse_status_name("/ndn/k8s/compute/x")

    def test_data_name(self):
        assert str(naming.data_name("SRR2931415")) == "/ndn/k8s/data/SRR2931415"
        with pytest.raises(InvalidComputeName):
            naming.data_name("")

    def test_canonical_key_ignores_resources_and_request_id(self):
        a = naming.canonical_request_key({"app": "BLAST", "srr": "S", "cpu": 2, "mem": 4, "req": "1"})
        b = naming.canonical_request_key({"app": "BLAST", "srr": "S", "cpu": 8, "mem": 16, "req": "2"})
        assert a == b

    def test_canonical_key_differs_for_different_datasets(self):
        a = naming.canonical_request_key({"app": "BLAST", "srr": "S1"})
        b = naming.canonical_request_key({"app": "BLAST", "srr": "S2"})
        assert a != b


class TestComputeRequest:
    def test_to_name_and_back(self):
        request = ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                                 dataset="SRR2931415", reference="HUMAN")
        name = request.to_name()
        assert naming.COMPUTE_PREFIX.is_prefix_of(name)
        parsed = ComputeRequest.from_name(name)
        assert parsed == request

    def test_extra_params_round_trip(self):
        request = ComputeRequest(app="COMPRESS", dataset="file-1", params={"level": "9"})
        assert ComputeRequest.from_name(request.to_name()).params["level"] == "9"

    def test_paper_example_name_parses(self):
        request = ComputeRequest.from_name("/ndn/k8s/compute/app=BLAST&cpu=6&mem=4")
        assert request.app == "BLAST"
        assert request.cpu == 6
        assert request.memory_gb == 4

    def test_invalid_requests_rejected(self):
        with pytest.raises(InvalidComputeName):
            ComputeRequest(app="", cpu=1, memory_gb=1)
        with pytest.raises(InvalidComputeName):
            ComputeRequest(app="X", cpu=0, memory_gb=1)
        with pytest.raises(InvalidComputeName):
            ComputeRequest(app="X", cpu=1, memory_gb=-1)

    def test_param_collision_with_builtin_rejected(self):
        request = ComputeRequest(app="X", params={"cpu": "9"})
        with pytest.raises(InvalidComputeName):
            request.to_params()

    def test_cache_key_stable_across_resources(self):
        a = ComputeRequest(app="BLAST", cpu=2, memory_gb=4, dataset="S", reference="H")
        b = ComputeRequest(app="BLAST", cpu=8, memory_gb=32, dataset="S", reference="H")
        assert a.cache_key() == b.cache_key()

    def test_describe_mentions_key_fields(self):
        text = ComputeRequest(app="BLAST", dataset="SRR2931415", reference="HUMAN").describe()
        assert "BLAST" in text and "SRR2931415" in text


class TestJobRecord:
    def test_state_transitions_and_timing(self):
        record = JobRecord(job_id="j1", request=ComputeRequest(app="SLEEP"), cluster="c",
                           submitted_at=10.0)
        assert not record.is_terminal
        record.state = JobState.RUNNING
        record.started_at = 12.0
        record.state = JobState.COMPLETED
        record.finished_at = 20.0
        assert record.is_terminal
        assert record.runtime() == 8.0
        assert record.finished_at - record.submitted_at == 10.0

    def test_status_payload_completed(self):
        record = JobRecord(job_id="j1", request=ComputeRequest(app="BLAST"), cluster="c",
                           state=JobState.COMPLETED, submitted_at=0.0, started_at=1.0,
                           finished_at=5.0, result_name=Name("/ndn/k8s/data/j1-output"),
                           result_size_bytes=100)
        payload = record.status_payload()
        assert payload["state"] == "Completed"
        assert payload["result_name"] == "/ndn/k8s/data/j1-output"
        assert payload["runtime_s"] == 4.0

    def test_status_payload_failed(self):
        record = JobRecord(job_id="j1", request=ComputeRequest(app="BLAST"), cluster="c",
                           state=JobState.FAILED, error="bad SRR")
        assert record.status_payload()["error"] == "bad SRR"

    def test_status_payload_carries_only_what_changes(self):
        record = JobRecord(job_id="j1", request=ComputeRequest(app="BLAST"), cluster="c")
        assert record.status_payload() == {"state": "Pending"}
        record.state = JobState.COMPLETED
        assert set(record.status_payload()) == {
            "state", "result_name", "result_size_bytes", "runtime_s", "from_cache"}
        record.state = JobState.FAILED
        assert record.status_payload() == {"state": "Failed", "error": "unknown error"}

    def test_terminal_states(self):
        assert JobState.COMPLETED.is_terminal()
        assert JobState.FAILED.is_terminal()
        assert not JobState.PENDING.is_terminal()
        assert not JobState.RUNNING.is_terminal()
