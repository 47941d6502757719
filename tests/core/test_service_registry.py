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
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sra import SraRegistry
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

    def test_alias_params_build_the_canonical_name(self):
        aliased = ComputeRequest.from_params({"app": "X", "memory": "8"})
        canonical = ComputeRequest.from_params({"app": "X", "mem": "8"})
        assert aliased.to_name() == canonical.to_name()
        assert "memory=" not in str(aliased.to_name())

    def test_from_name_types_base_fields_and_keeps_extras_as_strings(self):
        request = ComputeRequest.from_name(
            "/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&srr=S&zz=1")
        assert (request.app, request.cpu, request.memory_gb) == ("BLAST", 2, 4.0)
        assert request.dataset == "S"
        assert request.reference is None
        assert request.params == {"zz": "1"}

    def test_extra_params_may_not_shadow_schema_aliases(self):
        # `params={"memory": ...}` would build a name from_params rejects, so
        # to_params refuses it up front (same as the canonical keys).
        for key in ("memory", "dataset", "mem", "srr", "app"):
            request = ComputeRequest(app="SLEEP", params={key: "8"})
            with pytest.raises(InvalidComputeName):
                request.to_params()

    @given(
        app=st.text(alphabet="ABCXYZ", min_size=1, max_size=6),
        cpu=st.floats(min_value=0, exclude_min=True, allow_nan=False, allow_infinity=False),
        memory=st.floats(min_value=0, exclude_min=True, allow_nan=False,
                         allow_infinity=False),
        dataset=st.one_of(st.none(), st.text(alphabet="SRR0123456789", min_size=3, max_size=12)),
        use_alias_mem=st.booleans(),
        use_alias_dataset=st.booleans(),
    )
    def test_round_trip_property(self, app, cpu, memory, dataset, use_alias_mem,
                                 use_alias_dataset):
        # from_params(to_params(r)) == r for any positive finite resources
        # (no digit is lost on the wire), and alias spellings of the same
        # request re-encode to the identical canonical name.
        request = ComputeRequest(app=app, cpu=cpu, memory_gb=memory, dataset=dataset)
        assert ComputeRequest.from_params(request.to_params()) == request

        params = request.to_params()
        if use_alias_mem:
            params["memory"] = params.pop("mem")
        if use_alias_dataset and "srr" in params:
            params["dataset"] = params.pop("srr")
        assert ComputeRequest.from_params(params).to_name() == request.to_name()

    def test_short_numbers_keep_their_short_spelling(self):
        params = ComputeRequest(app="X", cpu=2, memory_gb=4.5).to_params()
        assert (params["cpu"], params["mem"]) == ("2", "4.5")
        params = ComputeRequest(app="X", cpu=1234567, memory_gb=1.0000001).to_params()
        assert (params["cpu"], params["mem"]) == ("1234567.0", "1.0000001")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("resource", ["cpu", "memory_gb"])
    def test_non_finite_resources_rejected_at_construction(self, resource, value):
        with pytest.raises(InvalidComputeName):
            ComputeRequest(app="X", **{resource: value})


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------


class TestServiceRegistry:
    def test_defaults_ship_the_paper_applications(self):
        services = ServiceRegistry.with_defaults()
        for app in ("BLAST", "MAGICBLAST", "COMPRESS", "SLEEP"):
            assert services.try_get(app) is not None
        assert services.get("magicblast") is services.get("BLAST")  # alias of BLAST

    def test_defaults_share_the_site_registry_and_model(self):
        registry = SraRegistry()
        model = BlastRuntimeModel(registry=registry)
        blast = ServiceRegistry.with_defaults(registry, model).get("BLAST")
        assert blast.runner.registry is registry
        assert blast.runner.model is model
        assert blast.validator.registry is registry

    def test_unknown_app(self):
        services = ServiceRegistry.with_defaults()
        assert services.try_get("FOLDING") is None
        with pytest.raises(UnknownApplication):
            services.get("FOLDING")

    def test_reregistering_drops_the_replaced_aliases(self):
        services = ServiceRegistry.with_defaults()
        services.register(ServiceDefinition(name="BLAST", runner=object()))
        assert services.try_get("BLAST") is not None
        assert services.try_get("MAGICBLAST") is None

    def test_register_refuses_a_key_another_service_holds(self):
        services = ServiceRegistry.with_defaults()
        sleep = services.get("SLEEP")
        with pytest.raises(ValueError):
            services.register(ServiceDefinition(name="FOO", runner=object(), aliases=("SLEEP",)))
        with pytest.raises(ValueError):
            services.register(ServiceDefinition(name="MAGICBLAST", runner=object()))
        assert services.get("SLEEP") is sleep
        assert services.try_get("FOO") is None
        assert services.get("MAGICBLAST") is services.get("BLAST")

    def test_schema_violation_fails_validation(self):
        services = ServiceRegistry.with_defaults()
        bad_level = ComputeRequest(app="COMPRESS", dataset="d", params={"level": "abc"})
        result = services.validate(bad_level)
        assert not result.ok and "level" in result.message
        bad_duration = ComputeRequest(app="SLEEP", params={"duration": "soon"})
        result = services.validate(bad_duration)
        assert not result.ok and "duration" in result.message

    def test_describe_shape(self):
        services = ServiceRegistry.with_defaults()
        assert services.get("SLEEP").schema.fields[0].name == "duration"
        assert services.get("BLAST").aliases == ("MAGICBLAST",)


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
            client=testbed.client(poll_interval_s=5.0))
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
        definition = wordcount_definition()
        testbed.register_service(definition)
        late = testbed.add_cluster(name="cluster-late")
        assert late.services.get("WORDCOUNT") is definition

    def test_cache_opt_out_is_honoured(self):
        definition = ServiceDefinition(
            name="NOCACHE", runner=WordCountRunner(), validator=WordCountValidator(),
            cacheable=False)
        testbed = LIDCTestbed.single_cluster(seed=45, enable_result_cache=True)
        testbed.register_service(definition)
        cluster = testbed.cluster("cluster-a")
        cluster.datalake.publish_bytes("notes", b"alpha beta")
        request = ComputeRequest(app="NOCACHE", cpu=1, memory_gb=1, dataset="notes")
        first = testbed.submit_and_wait(
            request, client=testbed.client(poll_interval_s=5.0), fetch_result=False)
        second = testbed.submit_and_wait(
            request, client=testbed.client(poll_interval_s=5.0), fetch_result=False)
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
