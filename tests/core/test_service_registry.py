"""Tests for the declarative service plane (ServiceDefinition / ServiceRegistry)."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.cluster.pod import Container, PodSpec, ResourceRequirements, WorkloadResult
from repro.core import naming
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.framework import LIDCTestbed
from repro.core.service import (
    BASE_SCHEMA,
    ParamField,
    ServiceDefinition,
    ServiceRegistry,
    ServiceSchema,
)
from repro.core.spec import ComputeRequest
from repro.core.validation import ValidationResult
from repro.exceptions import InvalidComputeName, UnknownApplication
from repro.ndn.client import Consumer


# ---------------------------------------------------------------------------
# Typed parameter schema
# ---------------------------------------------------------------------------


class TestParamField:
    def test_typed_parse_and_encode(self):
        field = ParamField("cpu", float, default=2.0)
        assert field.parse("6") == 6.0
        assert field.encode(6.0) == "6"
        assert ParamField("level", int).parse("9") == 9

    def test_bad_numeric_raises_invalid_compute_name_not_value_error(self):
        # Satellite: a hostile name like cpu=abc must surface as
        # InvalidComputeName, never a bare ValueError.
        field = ParamField("cpu", float)
        with pytest.raises(InvalidComputeName):
            field.parse("abc")
        with pytest.raises(InvalidComputeName):
            ParamField("level", int).parse("4.5")

    def test_non_finite_floats_rejected(self):
        for hostile in ("nan", "inf", "-inf"):
            with pytest.raises(InvalidComputeName):
                ParamField("cpu", float).parse(hostile)

    def test_bounds_and_choices(self):
        bounded = ParamField("level", int, minimum=1, maximum=9)
        assert bounded.parse("5") == 5
        with pytest.raises(InvalidComputeName):
            bounded.parse("0")
        with pytest.raises(InvalidComputeName):
            bounded.parse("10")
        choice = ParamField("mode", str, choices=("fast", "slow"))
        assert choice.parse("fast") == "fast"
        with pytest.raises(InvalidComputeName):
            choice.parse("medium")


class TestServiceSchema:
    def test_alias_keys_fold_to_canonical(self):
        typed, extras = BASE_SCHEMA.parse(
            {"app": "X", "memory": "8", "dataset": "D-1", "other": "y"})
        assert typed["mem"] == 8.0
        assert typed["srr"] == "D-1"
        assert extras == {"other": "y"}

    def test_field_under_two_spellings_rejected(self):
        with pytest.raises(InvalidComputeName):
            BASE_SCHEMA.parse({"app": "X", "mem": "4", "memory": "8"})
        with pytest.raises(InvalidComputeName):
            BASE_SCHEMA.parse({"app": "X", "srr": "a", "dataset": "b"})

    def test_required_field_missing_or_empty(self):
        with pytest.raises(InvalidComputeName):
            BASE_SCHEMA.parse({"cpu": "2"})
        with pytest.raises(InvalidComputeName):
            BASE_SCHEMA.parse({"app": ""})

    def test_canonicalise_produces_one_wire_form(self):
        canonical = BASE_SCHEMA.canonicalise({"app": "X", "memory": "8", "dataset": "D"})
        alias_free = BASE_SCHEMA.canonicalise({"app": "X", "mem": "8", "srr": "D"})
        assert canonical == alias_free == {"app": "X", "cpu": "2", "mem": "8", "srr": "D"}

    def test_allow_extra_false_rejects_strangers(self):
        schema = ServiceSchema(fields=(ParamField("a", str),), allow_extra=False)
        with pytest.raises(InvalidComputeName):
            schema.parse({"a": "1", "b": "2"})

    def test_duplicate_schema_keys_rejected(self):
        with pytest.raises(ValueError):
            ServiceSchema(fields=(ParamField("a", str), ParamField("b", str, aliases=("a",))))


class TestAliasCanonicalisationEndToEnd:
    def test_alias_name_parses_to_same_request_and_same_cache_key(self):
        # Satellite: an alias-form name must not split the result cache.
        canonical = ComputeRequest.from_name(
            "/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&ref=HUMAN&srr=SRR2931415")
        aliased = ComputeRequest.from_name(
            "/ndn/k8s/compute/app=BLAST&cpu=2&dataset=SRR2931415&memory=4&ref=HUMAN")
        assert aliased == canonical
        assert aliased.cache_key() == canonical.cache_key()
        assert aliased.to_name() == canonical.to_name()

    def test_canonical_compute_name_folds_aliases(self):
        a = naming.canonical_compute_name({"app": "X", "memory": "8"})
        b = naming.canonical_compute_name({"app": "X", "mem": "8"})
        assert a == b

    def test_parse_typed_compute_name(self):
        typed, extras = naming.parse_typed_compute_name(
            "/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&srr=S&zz=1")
        assert typed == {"app": "BLAST", "cpu": 2.0, "mem": 4.0, "srr": "S", "ref": None}
        assert extras == {"zz": "1"}

    def test_extra_params_may_not_shadow_schema_aliases(self):
        # `params={"memory": ...}` would build a name from_params rejects, so
        # to_params refuses it up front (same as the canonical keys).
        for key in ("memory", "dataset", "mem", "srr", "app"):
            request = ComputeRequest(app="SLEEP", params={key: "8"})
            with pytest.raises(InvalidComputeName):
                request.to_params()

    @given(
        app=st.text(alphabet="ABCXYZ", min_size=1, max_size=6),
        cpu=st.integers(min_value=1, max_value=64),
        memory=st.integers(min_value=1, max_value=512),
        dataset=st.one_of(st.none(), st.text(alphabet="SRR0123456789", min_size=3, max_size=12)),
        use_alias_mem=st.booleans(),
        use_alias_dataset=st.booleans(),
    )
    def test_round_trip_property(self, app, cpu, memory, dataset, use_alias_mem,
                                 use_alias_dataset):
        # Satellite: from_params(to_params(r)) == r, and alias spellings of the
        # same request re-encode to the identical canonical name.
        request = ComputeRequest(app=app, cpu=cpu, memory_gb=memory, dataset=dataset)
        assert ComputeRequest.from_params(request.to_params()) == request

        params = request.to_params()
        if use_alias_mem:
            params["memory"] = params.pop("mem")
        if use_alias_dataset and "srr" in params:
            params["dataset"] = params.pop("srr")
        assert ComputeRequest.from_params(params).to_name() == request.to_name()


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------


class TestServiceRegistry:
    def test_defaults_ship_the_paper_applications(self):
        services = ServiceRegistry.with_defaults()
        assert services.has_app("BLAST")
        assert services.has_app("MAGICBLAST")  # alias of BLAST
        assert services.has_app("COMPRESS")
        assert services.has_app("SLEEP")
        assert services.resolve("magicblast") == "BLAST"
        assert services.runner_for("MAGICBLAST") is services.runner_for("BLAST")
        assert "MAGICBLAST" in services.applications()

    def test_unknown_app(self):
        services = ServiceRegistry.with_defaults()
        assert services.try_get("FOLDING") is None
        with pytest.raises(UnknownApplication):
            services.runner_for("FOLDING")
        with pytest.raises(UnknownApplication):
            services.get("FOLDING")

    def test_unregister_removes_aliases_too(self):
        # By canonical name or by alias, unregistering removes the service.
        for name in ("BLAST", "MAGICBLAST"):
            services = ServiceRegistry.with_defaults()
            services.unregister(name)
            assert not services.has_app("BLAST")
            assert not services.has_app("MAGICBLAST")
        # Replacing a definition drops the aliases of the one it replaces.
        services = ServiceRegistry.with_defaults()
        services.register(ServiceDefinition(name="BLAST", runner=object()))
        assert services.has_app("BLAST")
        assert not services.has_app("MAGICBLAST")
        assert services.applications().count("MAGICBLAST") == 0

    def test_schema_violation_fails_validation(self):
        services = ServiceRegistry.with_defaults()
        bad_level = ComputeRequest(app="COMPRESS", dataset="d", params={"level": "abc"})
        result = services.validate(bad_level)
        assert not result.ok and "level" in result.message
        bad_duration = ComputeRequest(app="SLEEP", params={"duration": "soon"})
        result = services.validate(bad_duration)
        assert not result.ok and "duration" in result.message

    def test_clone_isolates_mutable_state(self):
        original = wordcount_definition()
        sibling = original.clone()
        sibling.runner = None
        sibling.validator = None
        assert original.runner is not None
        assert original.validator is not None

    def test_describe_shape(self):
        description = ServiceRegistry.with_defaults().describe()
        assert description["SLEEP"]["schema"][0]["name"] == "duration"
        assert description["BLAST"]["aliases"] == ["MAGICBLAST"]


# ---------------------------------------------------------------------------
# End-to-end: a brand-new application from one definition
# ---------------------------------------------------------------------------


class WordCountRunner:
    """Counts whitespace-separated tokens of a materialised dataset."""

    def build_pod_spec(self, request, datalake):
        def workload(pod) -> WorkloadResult:
            text = datalake.read_bytes(request.dataset or "").decode("utf-8", "replace")
            words = len(text.split())
            payload = json.dumps({"words": words}).encode("utf-8")
            return WorkloadResult(
                duration_s=1.0,
                output={"result_size_bytes": len(payload), "result_payload": payload,
                        "words": words},
            )

        return PodSpec(containers=[Container(
            name="wordcount", image="lidc/wordcount:1",
            resources=ResourceRequirements.of(cpu=request.cpu,
                                              memory=f"{request.memory_gb:g}Gi"),
            workload=workload, startup_delay_s=0.5,
        )])


class WordCountValidator:
    def validate(self, request, datalake=None):
        if not request.dataset:
            return ValidationResult(False, "WORDCOUNT requests must name a dataset")
        if datalake is not None and not datalake.has_dataset(request.dataset):
            return ValidationResult(False, f"dataset {request.dataset!r} is not in the lake")
        return ValidationResult(True)


def wordcount_definition() -> ServiceDefinition:
    return ServiceDefinition(
        name="WORDCOUNT",
        runner=WordCountRunner(),
        schema=ServiceSchema(fields=(
            ParamField("min_len", int, default=1, minimum=1, doc="minimum token length"),)),
        validator=WordCountValidator(),
        description="token count over a data-lake dataset",
    )


class TestSingleDefinitionApplication:
    """Acceptance: a new app from one ServiceDefinition, zero dispatch edits."""

    def test_end_to_end_submittable_through_the_full_stack(self):
        testbed = LIDCTestbed.single_cluster(seed=42)
        testbed.register_service(wordcount_definition())
        cluster = testbed.cluster("cluster-a")
        cluster.datalake.publish_bytes("notes", b"alpha beta gamma delta")

        outcome = testbed.submit_and_wait(
            ComputeRequest(app="WORDCOUNT", cpu=1, memory_gb=1, dataset="notes"),
            poll_interval_s=5.0)
        assert outcome.succeeded
        assert json.loads(outcome.result_payload.decode("utf-8")) == {"words": 4}

    def test_validation_and_schema_guard_the_new_app(self):
        testbed = LIDCTestbed.single_cluster(seed=43)
        testbed.register_service(wordcount_definition())

        missing = testbed.submit_and_wait(
            ComputeRequest(app="WORDCOUNT", cpu=1, memory_gb=1))
        assert not missing.succeeded
        assert "must name a dataset" in (missing.error or "")

        cluster = testbed.cluster("cluster-a")
        cluster.datalake.publish_bytes("notes", b"alpha beta")
        bad_param = testbed.submit_and_wait(
            ComputeRequest(app="WORDCOUNT", cpu=1, memory_gb=1, dataset="notes",
                           params={"min_len": "zero"}))
        assert not bad_param.succeeded
        assert "min_len" in (bad_param.error or "")

    def test_new_clusters_inherit_registered_services(self):
        testbed = LIDCTestbed.single_cluster(seed=44)
        testbed.register_service(wordcount_definition())
        late = testbed.add_cluster(name="cluster-late")
        assert late.services.has_app("WORDCOUNT")

    def test_cache_opt_out_is_honoured(self):
        definition = ServiceDefinition(
            name="NOCACHE", runner=WordCountRunner(), validator=WordCountValidator(),
            cacheable=False)
        testbed = LIDCTestbed.single_cluster(seed=45, enable_result_cache=True)
        testbed.register_service(definition)
        cluster = testbed.cluster("cluster-a")
        cluster.datalake.publish_bytes("notes", b"alpha beta")
        request = ComputeRequest(app="NOCACHE", cpu=1, memory_gb=1, dataset="notes")
        first = testbed.submit_and_wait(request, poll_interval_s=5.0, fetch_result=False)
        second = testbed.submit_and_wait(request, poll_interval_s=5.0, fetch_result=False)
        assert first.succeeded and second.succeeded
        assert not second.from_cache
        assert cluster.gateway.cache.insertions == 0


class TestHostileNamesAtTheGateway:
    @pytest.fixture
    def cluster(self, env):
        return LIDCCluster(env, ClusterSpec(name="svc", node_count=1))

    def test_non_numeric_resources_answered_with_data_error(self, env, cluster):
        # Satellite: cpu=abc from a hostile name must produce a rejection Data,
        # not crash the gateway with an uncaught ValueError.
        consumer = Consumer(env, cluster.gateway_nfd)
        for component in ("app=SLEEP&cpu=abc", "app=SLEEP&mem=oops",
                          "app=SLEEP&cpu=nan", "app=COMPRESS&srr=d&level=high"):
            name = naming.COMPUTE_PREFIX.append(component)
            data = env.run(until=consumer.express_interest(name, lifetime=2.0))
            payload = json.loads(data.content_text())
            assert payload["accepted"] is False
        # Gateway still healthy.
        record = cluster.gateway.submit_local(
            ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "5"}))
        env.run(until=env.now + 30)
        assert cluster.gateway.tracker.get(record.job_id).is_terminal

    def test_conflicting_alias_spellings_rejected(self, env, cluster):
        consumer = Consumer(env, cluster.gateway_nfd)
        name = naming.COMPUTE_PREFIX.append("app=SLEEP&mem=4&memory=8")
        data = env.run(until=consumer.express_interest(name, lifetime=2.0))
        payload = json.loads(data.content_text())
        assert payload["accepted"] is False
        assert "duplicates" in payload["error"]
