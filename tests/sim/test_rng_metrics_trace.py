"""Tests for the seeded RNG, metrics registry and tracer."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.ndn.name import Name
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, merge_histograms
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceEvent, Tracer


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

    def test_shuffle_preserves_elements(self, rng):
        items = list(range(20))
        shuffled = rng.shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # original untouched

    def test_bernoulli_validates_probability(self, rng):
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_bernoulli_extremes(self, rng):
        assert rng.bernoulli(1.0) is True
        assert rng.bernoulli(0.0) is False

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

    def test_zipf_cdf_memo_does_not_change_the_draw_sequence(self):
        """Interleaving (n, alpha) pairs reuses memoised CDFs without
        perturbing the stream's underlying uniform sequence."""
        a = SeededRNG(11)
        interleaved = [a.zipf(10, 1.0), a.zipf(20, 0.8), a.zipf(10, 1.0)]
        b = SeededRNG(11)
        again = [b.zipf(10, 1.0), b.zipf(20, 0.8), b.zipf(10, 1.0)]
        assert interleaved == again

    def test_weighted_choice_respects_weights(self, rng):
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(9000):
            counts[rng.weighted_choice(["a", "b", "c"], [6.0, 3.0, 1.0])] += 1
        assert counts["a"] > counts["b"] > counts["c"]
        assert abs(counts["a"] - 5400) < 300  # 4 sigma ~ 190

    def test_weighted_choice_zero_weight_is_never_chosen(self, rng):
        for _ in range(200):
            assert rng.weighted_choice(["x", "y"], [0.0, 1.0]) == "y"

    def test_weighted_choice_validates_inputs(self, rng):
        with pytest.raises(ValueError):
            rng.weighted_choice([], [])
        with pytest.raises(ValueError):
            rng.weighted_choice(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            rng.weighted_choice(["a", "b"], [1.0, -0.5])
        with pytest.raises(ValueError):
            rng.weighted_choice(["a", "b"], [0.0, 0.0])

    def test_weighted_choice_is_deterministic(self):
        options = list("abcdef")
        weights = [1, 5, 2, 8, 3, 1]
        rng1, rng2 = SeededRNG(13), SeededRNG(13)
        seq1 = [rng1.weighted_choice(options, weights) for _ in range(100)]
        seq2 = [rng2.weighted_choice(options, weights) for _ in range(100)]
        assert seq1 == seq2


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_tracks_extremes(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(10)
        gauge.inc(2)
        assert gauge.value == -3
        assert gauge.min_seen == -5
        assert gauge.max_seen == 5

    def test_histogram_summary(self):
        hist = Histogram("h")
        for value in [1, 2, 3, 4, 5]:
            hist.observe(value)
        assert hist.count == 5
        assert hist.mean == 3.0
        assert hist.minimum == 1
        assert hist.maximum == 5
        assert hist.percentile(50) == 3.0
        assert hist.stddev > 0

    def test_empty_histogram_is_safe(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.percentile(99) == 0.0
        assert hist.stddev == 0.0

    def test_registry_reuses_named_metrics(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 3
        assert snapshot["g"] == 7
        assert snapshot["h"]["count"] == 1

    def test_registry_timer_uses_clock(self):
        clock = {"now": 0.0}
        registry = MetricsRegistry(clock=lambda: clock["now"])
        with registry.timer("op"):
            clock["now"] = 2.5
        assert registry.histogram("op").samples == [2.5]

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.merge(b)
        assert a.counter("c").value == 3

    def test_merge_histograms(self):
        h1, h2 = Histogram("a"), Histogram("b")
        h1.observe(1)
        h2.observe(2)
        merged = merge_histograms([h1, h2])
        assert sorted(merged.samples) == [1, 2]

    def test_registry_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert registry.names() == ["a", "b"]


class TestTracer:
    def test_records_are_timestamped_with_clock(self):
        clock = {"now": 1.5}
        tracer = Tracer(clock=lambda: clock["now"])
        tracer.record("cat", "ev", foo=1)
        assert tracer.events[0] == TraceEvent(time=1.5, category="cat", event="ev", attrs={"foo": 1})

    def test_record_is_a_small_immutable_tuple(self):
        tracer = Tracer(clock=lambda: 2.0)
        record = tracer.record("cat", "ev", foo=1)
        assert record is tracer.events[0]
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
        record = tracer.record(
            "interest", "in", name=name, face=7, cost=1.5, fresh=True, reason=None,
            label="x", hops=[1, 2],
        )
        assert record.attrs == {
            "name": "/ndn/k8s/data/genome/seg=3", "face": 7, "cost": 1.5, "fresh": True,
            "reason": None, "label": "x", "hops": "[1, 2]",
        }
        assert all(type(value) in (str, int, float, bool, type(None))
                   for value in record.attrs.values())
        assert record.attrs["name"] is str(name)
        assert tracer.record("data", "in", name=name).attrs["name"] is record.attrs["name"]
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

    def test_spans_pair_start_and_end(self):
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"])
        tracer.record("job", "start", job_id="j1")
        clock["now"] = 4.0
        tracer.record("job", "end", job_id="j1")
        spans = tracer.spans("start", "end", key="job_id")
        assert spans == [("j1", 4.0)]

    def test_merge_orders_by_time(self):
        clock_a, clock_b = {"now": 5.0}, {"now": 1.0}
        a = Tracer(clock=lambda: clock_a["now"])
        b = Tracer(clock=lambda: clock_b["now"])
        a.record("x", "late")
        b.record("x", "early")
        merged = Tracer.merge([a, b])
        assert [ev.event for ev in merged] == ["early", "late"]

    def test_to_dicts_and_clear(self):
        tracer = Tracer()
        tracer.record("cat", "ev", k="v")
        assert tracer.to_dicts()[0]["k"] == "v"
        tracer.clear()
        assert len(tracer) == 0

    def test_categories(self):
        tracer = Tracer()
        tracer.record("a", "x")
        tracer.record("b", "x")
        assert tracer.categories() == {"a", "b"}


class TestRNGProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=10))
    def test_stream_reproducibility_property(self, seed, name):
        assert SeededRNG(seed).stream(name).random() == SeededRNG(seed).stream(name).random()

    @given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_bernoulli_accepts_any_valid_probability(self, p):
        SeededRNG(0).bernoulli(p)
