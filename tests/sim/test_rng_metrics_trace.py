"""Tests for the seeded RNG, metrics registry and tracer."""

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.ndn.name import Name
from repro.sim import metrics
from repro.sim.metrics import Counter, MetricsRegistry
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceEvent, Tracer

_PRIMITIVES = (str, int, float, bool, type(None))


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(7).stream("x").random(5).tolist()
        b = SeededRNG(7).stream("x").random(5).tolist()
        assert a == b

    def test_different_streams_are_independent(self):
        rng = SeededRNG(7)
        assert rng.stream("a").random(5).tolist() != rng.stream("b").random(5).tolist()

    def test_different_seeds_differ(self):
        assert SeededRNG(1).uniform(0, 1) != SeededRNG(2).uniform(0, 1)

    def test_uniform_bounds(self, rng):
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_integer_bounds_inclusive(self, rng):
        values = {rng.integer(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_choice_empty_raises(self, rng):
        with pytest.raises(ValueError):
            rng.choice([])

    def test_choice_returns_member(self, rng):
        options = ["a", "b", "c"]
        assert rng.choice(options) in options

    def test_exponential_positive(self, rng):
        assert rng.exponential(10.0) > 0

    def test_spawn_is_deterministic_and_independent(self):
        parent = SeededRNG(5)
        child1 = parent.spawn("worker")
        child2 = SeededRNG(5).spawn("worker")
        assert child1.uniform(0, 1) == child2.uniform(0, 1)
        assert parent.uniform(0, 1) != child1.uniform(0, 1)

    def test_zipf_bounds_and_determinism(self):
        rng = SeededRNG(9)
        draws = [rng.zipf(10, 1.2) for _ in range(500)]
        assert all(0 <= d < 10 for d in draws)
        again = SeededRNG(9)
        assert draws == [again.zipf(10, 1.2) for _ in range(500)]

    def test_zipf_is_rank_skewed(self):
        rng = SeededRNG(10)
        counts = [0] * 8
        for _ in range(8000):
            counts[rng.zipf(8, 1.5)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > 3 * counts[-1]

    def test_zipf_alpha_zero_is_uniform_and_n_one_is_constant(self, rng):
        assert {rng.zipf(1, 2.0) for _ in range(20)} == {0}
        counts = [0] * 4
        for _ in range(8000):
            counts[rng.zipf(4, 0.0)] += 1
        assert min(counts) > 1700  # expected 2000 each

    def test_zipf_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            rng.zipf(0, 1.0)
        with pytest.raises(ValueError):
            rng.zipf(10, -0.5)

    def test_zipf_rejects_a_nan_exponent(self, rng):
        # ``nan < 0`` is false: a sign test alone would let NaN through,
        # and every draw would be rank 0.
        with pytest.raises(ValueError):
            rng.zipf(5, float("nan"))

    def test_zipf_cdf_memo_does_not_change_the_draw_sequence(self):
        """Interleaving (n, alpha) pairs reuses memoised CDFs without
        perturbing the stream's underlying uniform sequence."""
        a = SeededRNG(11)
        interleaved = [a.zipf(10, 1.0), a.zipf(20, 0.8), a.zipf(10, 1.0)]
        b = SeededRNG(11)
        again = [b.zipf(10, 1.0), b.zipf(20, 0.8), b.zipf(10, 1.0)]
        assert interleaved == again


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_registry_reuses_named_metrics(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.counter("d")
        assert registry.snapshot() == {"c": 3, "d": 0}

    def test_snapshot_is_a_point_in_time_copy(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        snapshot = registry.snapshot()
        registry.counter("c").inc()
        snapshot["c"] = 99
        assert snapshot == {"c": 99}
        assert registry.snapshot() == {"c": 3}

    def test_sim_exports_counters_only(self):
        import repro.sim

        for gone in ("Gauge", "Histogram", "Timer"):
            assert not hasattr(repro.sim, gone) and not hasattr(metrics, gone)
        assert metrics.__all__ == ["Counter", "MetricsRegistry"]
        assert "numpy" not in vars(metrics)

    def test_counter_lookup_builds_no_counter(self, call_count, monkeypatch):
        """``counter(name)`` on a known name is a lookup: it constructs
        nothing, so 1 000 hits make 1 000 fewer calls than 1 000 misses
        (each miss builds one ``Counter``)."""
        registry = MetricsRegistry()
        registry.counter("x")
        fresh = [f"n{i}" for i in range(1000)]
        hits = call_count(lambda: [registry.counter("x") for _ in range(1000)])
        misses = call_count(lambda: [registry.counter(name) for name in fresh])
        assert misses - hits >= 1000
        built = []
        monkeypatch.setattr(metrics, "Counter", lambda name: built.append(name))
        for _ in range(1000):
            registry.counter("x").inc()
        assert built == [] and registry.counter("x").value == 1000


class TestTracer:
    def test_records_are_timestamped_with_clock(self):
        clock = {"now": 1.5}
        tracer = Tracer(clock=lambda: clock["now"])
        tracer.record("cat", "ev", foo=1)
        assert tracer.events[0] == TraceEvent(time=1.5, category="cat", event="ev", attrs={"foo": 1})

    def test_record_is_a_small_immutable_tuple(self):
        """What the store hands back is a ``TraceEvent``: a frozen named tuple."""
        tracer = Tracer(clock=lambda: 2.0)
        assert tracer.record("cat", "ev", foo=1) is None
        record = tracer.events[-1]
        assert (record.time, record.category, record.event, record.attrs) == (2.0, "cat", "ev", {"foo": 1})
        assert tuple(record) == (2.0, "cat", "ev", {"foo": 1})
        assert record.matches("cat") and record.matches(event="ev") and not record.matches("other")
        with pytest.raises(AttributeError):
            record.time = 3.0
        assert not hasattr(record, "__dict__")

    def test_attrs_are_formatted_eagerly_to_primitives(self):
        """The formatting contract: a stored record holds primitives only,
        and a name is stored as the one URI string the name memoises."""
        name = Name("/ndn/k8s/data/genome/seg=3")
        tracer = Tracer()
        tracer.record(
            "interest", "in", name=name, face=7, cost=1.5, fresh=True, reason=None,
            label="x", hops=[1, 2],
        )
        record = tracer.events[-1]
        assert record.attrs == {
            "name": "/ndn/k8s/data/genome/seg=3", "face": 7, "cost": 1.5, "fresh": True,
            "reason": None, "label": "x", "hops": "[1, 2]",
        }
        assert all(type(value) in _PRIMITIVES for value in record.attrs.values())
        assert record.attrs["name"] is str(name)
        tracer.record("data", "in", name=name)
        assert tracer.events[-1].attrs["name"] is record.attrs["name"]
        assert not gc.is_tracked(record.attrs)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.record("cat", "ev") is None
        assert len(tracer) == 0

    def test_filter_by_category_and_event(self):
        tracer = Tracer()
        tracer.record("a", "x")
        tracer.record("a", "y")
        tracer.record("b", "x")
        assert len(tracer.filter(category="a")) == 2
        assert len(tracer.filter(event="x")) == 2
        assert len(tracer.filter(category="b", event="x")) == 1

    def test_events_are_read_only(self):
        tracer = Tracer()
        tracer.record("a", "x", k=1)
        with pytest.raises(TypeError):
            tracer.events[0] = TraceEvent(0.0, "b", "y", {})
        with pytest.raises(AttributeError):
            tracer.events = []
        with pytest.raises(IndexError):
            tracer.events[1]
        assert tracer.events[0].category == "a"

    def test_a_record_that_fails_to_format_stores_nothing(self):
        class Unprintable:
            def __str__(self):
                raise ValueError("no")

        tracer = Tracer()
        tracer.record("a", "x", k=1)
        with pytest.raises(ValueError):
            tracer.record("a", "x", k=Unprintable())
        tracer.record("a", "x", k=2)
        assert [ev.attrs for ev in tracer.events] == [{"k": 1}, {"k": 2}]

    def test_packet_records_retain_at_most_48_bytes_each(self):
        """A forwarding-plane record (``name=<Name>``, ``face=<int>``) is
        three array slots and two list slots.  The eager list of
        ``TraceEvent`` tuples it replaced kept about 300 B a record here."""
        names = [Name(f"/ndn/k8s/data/genome/seg={i}") for i in range(100)]
        for name in names:
            str(name)  # memoise each URI now: the names are not the tracer's cost
        ticks = itertools.count(0.5)  # a fresh float per record, like ``env.now``
        tracer = Tracer(clock=lambda: next(ticks))
        records = 20_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(records):
                tracer.record("interest", "in", name=names[i % 100], face=i % 64)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tracer) == records
        assert retained / records <= 48


class _ListStore:
    """The reference store: the eager list of ``TraceEvent`` tuples that the
    column store replaced."""

    def __init__(self, clock):
        self._clock = clock
        self.events = []

    def record(self, category, event, **attrs):
        attrs = {key: value if isinstance(value, _PRIMITIVES) else str(value)
                 for key, value in attrs.items()}
        self.events.append(TraceEvent(self._clock(), category, event, attrs))

    def filter(self, category=None, event=None):
        return [ev for ev in self.events if ev.matches(category, event)]


class _Label(str):
    """A ``str`` subclass: a primitive by ``isinstance``, kept as it is."""


class _Opaque:
    def __str__(self):
        return "<opaque>"


_CATEGORIES = ("interest", "data", "shard")
_EVENTS = ("in", "out")
_attr_values = st.one_of(
    st.text(max_size=4), st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.builds(_Label, st.text(max_size=3)),
    st.sampled_from([Name("/ndn/a"), Name("/ndn/b/seg=1")]),
    st.lists(st.integers(0, 9), max_size=3),
    st.builds(_Opaque),
)
_record_ops = st.tuples(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.sampled_from(_CATEGORIES),
    st.sampled_from(_EVENTS),
    st.dictionaries(st.sampled_from(("name", "face", "reason", "aborted")), _attr_values,
                    max_size=4),
)
#: One ``(category, event)`` recorded with two key sets (and two key orders).
_SAME_KIND_OTHER_KEYS = [
    (0.0, "interest", "in", {"name": Name("/ndn/a"), "face": 1}),
    (0.5, "interest", "in", {"face": 2}),
    (1.0, "interest", "in", {"face": 3, "name": Name("/ndn/a")}),
]


class TestColumnStoreMatchesTheListStore:
    """Differential oracle: the column store against the eager list it replaced."""

    @staticmethod
    def _drive(ops):
        now = {"t": 0.0}
        real, reference = Tracer(clock=lambda: now["t"]), _ListStore(lambda: now["t"])
        for time, category, event, attrs in ops:
            now["t"] = time
            real.record(category, event, **attrs)
            reference.record(category, event, **attrs)
        return real, reference.events, reference

    @staticmethod
    def _same(got, want):
        assert got == want
        assert list(got.attrs.items()) == list(want.attrs.items())  # key order too

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_record_ops, max_size=30))
    def test_every_read_matches(self, ops):
        real, expected, reference = self._drive(_SAME_KIND_OTHER_KEYS + ops)
        events, n = real.events, len(expected)
        assert len(events) == len(real) == n
        for i in range(-n, n):
            self._same(events[i], expected[i])
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                events[index]
        for start in (None, 0, 1, -3, n):
            for stop in (None, -1, n // 2, n + 5):
                for step in (None, 1, 2, 3, -1, -2):
                    assert events[start:stop:step] == expected[start:stop:step]
        assert list(events) == expected
        for got, want in zip(events, expected):
            self._same(got, want)
        for category in (None, *_CATEGORIES, "absent"):
            for event in (None, *_EVENTS, "absent"):
                assert real.filter(category, event) == reference.filter(category, event)
        for record in events:
            values = record.attrs.values()
            assert all(isinstance(value, _PRIMITIVES) for value in values)
            # A ``_Label`` is a primitive by ``isinstance`` and is kept as it
            # is, so its dict is tracked in both stores; any other is not.
            if all(type(value) in _PRIMITIVES for value in values):
                assert not gc.is_tracked(record.attrs)


class TestRNGProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=10))
    def test_stream_reproducibility_property(self, seed, name):
        assert SeededRNG(seed).stream(name).random() == SeededRNG(seed).stream(name).random()
