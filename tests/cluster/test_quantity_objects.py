"""Tests for resource quantities, object metadata and the API server."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ObjectAlreadyExists, ObjectNotFound, QuantityParseError
from repro.cluster.apiserver import ApiServer, EventType
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

    def test_format_memory(self):
        assert str(Quantity(memory=4 * 1024**3)) == "cpu=0,memory=4Gi"
        assert str(Quantity(memory=1536 * 1024**2)) == "cpu=0,memory=1.50Gi"
        assert str(Quantity(memory=512)) == "cpu=0,memory=512"

    def test_format_cpu(self):
        assert str(Quantity(cpu=2.0)) == "cpu=2,memory=0"
        assert str(Quantity(cpu=0.5)) == "cpu=500m,memory=0"

    def test_quantity_arithmetic(self):
        a = Quantity.parse(cpu=2, memory="4Gi")
        b = Quantity.parse(cpu="500m", memory="1Gi")
        total = a + b
        assert total.cpu == pytest.approx(2.5)
        assert total.memory == 5 * 1024**3
        assert (total - b).cpu == pytest.approx(2.0)

    def test_fits_within(self):
        small = Quantity.parse(cpu=1, memory="1Gi")
        big = Quantity.parse(cpu=4, memory="8Gi")
        assert small.fits_within(big)
        assert not big.fits_within(small)
        assert big.fits_within(big)

    def test_scaled(self):
        q = Quantity.parse(cpu=2, memory="4Gi").scaled(0.5)
        assert q.cpu == 1.0
        assert q.memory == 2 * 1024**3

    def test_str_form(self):
        assert str(Quantity.parse(cpu="500m", memory="4Gi")) == "cpu=500m,memory=4Gi"

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

    def test_has_labels(self):
        meta = ObjectMeta(name="x", labels={"app": "nfd", "tier": "edge"})
        assert meta.has_labels({"app": "nfd"})
        assert not meta.has_labels({"app": "other"})

    def test_selector_matches(self):
        selector = LabelSelector.of(app="gateway")
        assert selector.matches(ObjectMeta(name="p", labels={"app": "gateway", "x": "1"}))
        assert not selector.matches(ObjectMeta(name="p", labels={"app": "other"}))
        assert selector.matches({"app": "gateway"})

    def test_empty_selector(self):
        selector = LabelSelector()
        assert selector.empty
        assert selector.matches({"anything": "goes"})

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
        assert api.count("Pod") == 2
        assert len(api.list("Pod", namespace="a")) == 1

    def test_list_with_selector(self):
        api = ApiServer()
        api.create("Pod", make_pod("keep"))
        api.create("Pod", make_pod("drop"))
        kept = api.list("Pod", selector=lambda pod: pod.metadata.name == "keep")
        assert [p.metadata.name for p in kept] == ["keep"]

    def test_delete(self):
        api = ApiServer()
        api.create("Pod", make_pod("p1"))
        api.delete("Pod", "p1")
        assert not api.exists("Pod", "p1")
        with pytest.raises(ObjectNotFound):
            api.delete("Pod", "p1")

    def test_update_unknown_rejected(self):
        api = ApiServer()
        with pytest.raises(ObjectNotFound):
            api.update("Pod", make_pod("ghost"))

    def test_watch_receives_add_modify_delete(self):
        api = ApiServer()
        events = []
        api.watch("Pod", lambda ev: events.append((ev.type, ev.obj.metadata.name)))
        pod = api.create("Pod", make_pod("p1"))
        api.touch("Pod", pod)
        api.delete("Pod", "p1")
        assert events == [
            (EventType.ADDED, "p1"), (EventType.MODIFIED, "p1"), (EventType.DELETED, "p1"),
        ]

    def test_watch_replays_existing_objects(self):
        api = ApiServer()
        api.create("Pod", make_pod("p1"))
        seen = []
        api.watch("Pod", lambda ev: seen.append(ev.obj.metadata.name), replay_existing=True)
        assert seen == ["p1"]

    def test_unsubscribe_stops_notifications(self):
        api = ApiServer()
        seen = []
        unsubscribe = api.watch("Pod", lambda ev: seen.append(1))
        unsubscribe()
        api.create("Pod", make_pod("p1"))
        assert seen == []

    def test_events_recorded_and_queried(self):
        api = ApiServer()
        pod = api.create("Pod", make_pod("p1"))
        api.record_event("Pod", pod.metadata, "Scheduled", "bound to node-1")
        api.record_event("Pod", pod.metadata, "Started", "running")
        assert len(api.events_for("p1")) == 2
        assert api.events_for("p1", kind="Pod")[0].reason == "Scheduled"

    def test_namespace_management(self):
        api = ApiServer()
        assert api.has_namespace("default")
        api.create_namespace("science")
        assert api.has_namespace("science")
