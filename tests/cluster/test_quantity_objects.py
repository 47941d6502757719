"""Tests for resource quantities, object metadata and the API server."""

import pytest
from hypothesis import given, strategies as st

import math

from repro.exceptions import ObjectAlreadyExists, ObjectNotFound, QuantityParseError
from repro.cluster.apiserver import ApiServer, EventType
from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.objects import LabelSelector, ObjectMeta, generate_name
from repro.cluster.pod import Pod, PodSpec
from repro.cluster.quantity import Quantity, parse_cpu, parse_memory


class TestQuantityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("2", 2.0), ("0.5", 0.5), ("500m", 0.5), ("2500m", 2.5), (4, 4.0), (1.5, 1.5),
    ])
    def test_parse_cpu(self, text, expected):
        assert parse_cpu(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text,expected", [
        ("1024", 1024), ("4Gi", 4 * 1024**3), ("512Mi", 512 * 1024**2),
        ("1Ki", 1024), ("2G", 2_000_000_000), ("100K", 100_000), (4096, 4096),
    ])
    def test_parse_memory(self, text, expected):
        assert parse_memory(text) == expected

    @pytest.mark.parametrize("bad", ["abc", "4Q", "", "-1Gi"])
    def test_parse_memory_rejects_garbage(self, bad):
        with pytest.raises(QuantityParseError):
            parse_memory(bad)

    @pytest.mark.parametrize("bad", ["fast", "4Gi", ""])
    def test_parse_cpu_rejects_garbage(self, bad):
        with pytest.raises(QuantityParseError):
            parse_cpu(bad)

    def test_negative_numbers_rejected(self):
        with pytest.raises(QuantityParseError):
            parse_cpu(-1)
        with pytest.raises(QuantityParseError):
            parse_memory(-5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, "9" * 400],
                             ids=["nan", "inf", "-inf", "huge-int", "huge-text"])
    @pytest.mark.parametrize("parse", [parse_cpu, parse_memory])
    def test_non_finite_numbers_rejected(self, parse, bad):
        with pytest.raises(QuantityParseError, match="not a finite non-negative number"):
            parse(bad)

    def test_memory_overflowing_its_suffix_rejected(self):
        with pytest.raises(QuantityParseError):
            parse_memory("1" * 300 + "Pi")

    def test_non_finite_node_shape_refuses_to_build_a_cluster(self, env):
        # A NaN node would build with no allocatable CPU and Congestion-Nack
        # every compute Interest without any error.
        with pytest.raises(QuantityParseError):
            Cluster(env, ClusterSpec(name="x", node_cpu=math.nan))
        with pytest.raises(QuantityParseError):
            Cluster(env, ClusterSpec(name="x", node_memory=math.inf))

    def test_quantity_arithmetic(self):
        a = Quantity(cpu=parse_cpu(2), memory=parse_memory("4Gi"))
        b = Quantity(cpu=parse_cpu("500m"), memory=parse_memory("1Gi"))
        total = a + b
        assert total.cpu == pytest.approx(2.5)
        assert total.memory == 5 * 1024**3
        assert (total - b).cpu == pytest.approx(2.0)

    def test_fits_within(self):
        small = Quantity(cpu=1.0, memory=parse_memory("1Gi"))
        big = Quantity(cpu=4.0, memory=parse_memory("8Gi"))
        assert small.fits_within(big)
        assert not big.fits_within(small)
        assert big.fits_within(big)

    @given(cpu=st.floats(min_value=0, max_value=1024, allow_nan=False),
           memory=st.integers(min_value=0, max_value=2**50))
    def test_add_then_subtract_is_identity(self, cpu, memory):
        base = Quantity(cpu=8.0, memory=2**40)
        delta = Quantity(cpu=cpu, memory=memory)
        result = (base + delta) - delta
        assert result.cpu == pytest.approx(base.cpu)
        assert result.memory == base.memory


class TestObjectMetaAndSelectors:
    def test_generate_name_unique(self):
        assert generate_name("x-") != generate_name("x-")

    def test_key(self):
        meta = ObjectMeta(name="pod-1", namespace="ns")
        assert meta.key() == ("ns", "pod-1")

    def test_selector_matches(self):
        selector = LabelSelector.from_dict({"app": "gateway"})
        assert selector.matches(ObjectMeta(name="p", labels={"app": "gateway", "x": "1"}))
        assert not selector.matches(ObjectMeta(name="p", labels={"app": "other"}))
        assert not selector.matches(ObjectMeta(name="p"))

    def test_empty_selector(self):
        assert LabelSelector().matches(ObjectMeta(name="p", labels={"anything": "goes"}))

    def test_selector_as_dict_round_trip(self):
        selector = LabelSelector.from_dict({"a": "1", "b": "2"})
        assert LabelSelector.from_dict(selector.as_dict()) == selector


def make_pod(name: str, namespace: str = "default") -> Pod:
    return Pod(metadata=ObjectMeta(name=name, namespace=namespace), spec=PodSpec())


class TestApiServer:
    def test_create_assigns_uid_and_time(self):
        clock = {"now": 12.0}
        api = ApiServer(clock=lambda: clock["now"])
        pod = api.create("Pod", make_pod("p1"))
        assert pod.metadata.uid.startswith("pod-")
        assert pod.metadata.creation_time == 12.0

    def test_duplicate_create_rejected(self):
        api = ApiServer()
        api.create("Pod", make_pod("p1"))
        with pytest.raises(ObjectAlreadyExists):
            api.create("Pod", make_pod("p1"))

    def test_get_and_try_get(self):
        api = ApiServer()
        api.create("Pod", make_pod("p1"))
        assert api.get("Pod", "p1").metadata.name == "p1"
        assert api.try_get("Pod", "missing") is None
        with pytest.raises(ObjectNotFound):
            api.get("Pod", "missing")

    def test_namespacing(self):
        api = ApiServer()
        api.create("Pod", make_pod("p1", namespace="a"))
        api.create("Pod", make_pod("p1", namespace="b"))
        assert len(api.list("Pod")) == 2
        assert len(api.list("Pod", namespace="a")) == 1

    def test_list_with_selector(self):
        api = ApiServer()
        api.create("Pod", make_pod("keep"))
        api.create("Pod", make_pod("drop"))
        kept = api.list("Pod", selector=lambda pod: pod.metadata.name == "keep")
        assert [p.metadata.name for p in kept] == ["keep"]

    def test_touch_unknown_rejected(self):
        api = ApiServer()
        with pytest.raises(ObjectNotFound):
            api.touch("Pod", make_pod("ghost"))

    def test_watch_receives_add_and_modify(self):
        api = ApiServer()
        events = []
        api.watch("Pod", lambda ev: events.append((ev.type, ev.obj.metadata.name)))
        pod = api.create("Pod", make_pod("p1"))
        api.touch("Pod", pod)
        assert events == [(EventType.ADDED, "p1"), (EventType.MODIFIED, "p1")]

    def test_watch_replays_existing_objects(self):
        api = ApiServer()
        api.create("Pod", make_pod("p1"))
        seen = []
        api.watch("Pod", lambda ev: seen.append(ev.obj.metadata.name), replay_existing=True)
        assert seen == ["p1"]

    def test_watch_without_replay_sees_only_new_objects(self):
        api = ApiServer()
        api.create("Pod", make_pod("old"))
        seen = []
        api.watch("Pod", lambda ev: seen.append(ev.obj.metadata.name), replay_existing=False)
        api.create("Pod", make_pod("new"))
        assert seen == ["new"]
