"""Determinism regressions for the workload library.

The reproducibility contract: identical seed => byte-identical request
trace (pinned by trace-hash equality across fresh runs and across
``spawn()``-ed sub-streams), and distinct streams stay decorrelated — a
draw on one stream never shifts another stream's sequence.
"""

from repro.ndn.packet import Data
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.workload import (
    FlashCrowdArrivals,
    MixedPopularity,
    PoissonArrivals,
    ScanPopularity,
    SpikeWindow,
    WorkloadDriver,
    WorkloadSpec,
    ZipfPopularity,
    build_trace,
    make_catalog,
    trace_hash,
)

CATALOG = make_catalog(128)
TENANTS = sorted({f"/{name.split('/')[1]}" for name in CATALOG})


def zipf_spec(label="zipf", requests=400):
    return WorkloadSpec(
        label=label,
        popularity=ZipfPopularity(alpha=1.1, catalog=CATALOG),
        arrivals=PoissonArrivals(200.0),
        requests=requests,
    )


def flash_spec(requests=400):
    return WorkloadSpec(
        label="flash",
        popularity=ZipfPopularity(alpha=1.4, catalog=CATALOG),
        arrivals=FlashCrowdArrivals(
            100.0, [SpikeWindow(start_s=1.0, duration_s=1.0, multiplier=8.0)]
        ),
        requests=requests,
    )


def mixed_spec(requests=400):
    return WorkloadSpec(
        label="mixed",
        popularity=MixedPopularity(
            [(0.7, ZipfPopularity(alpha=1.0, catalog=CATALOG)),
             (0.3, ScanPopularity(tenants=TENANTS))]
        ),
        arrivals=PoissonArrivals(150.0),
        requests=requests,
    )


class TestTraceDeterminism:
    def test_identical_seed_identical_trace(self):
        for spec_factory in (zipf_spec, flash_spec, mixed_spec):
            a = build_trace(spec_factory(), SeededRNG(42))
            b = build_trace(spec_factory(), SeededRNG(42))
            assert a == b
            assert trace_hash(a) == trace_hash(b)

    def test_different_seeds_differ(self):
        a = build_trace(zipf_spec(), SeededRNG(42))
        b = build_trace(zipf_spec(), SeededRNG(43))
        assert trace_hash(a) != trace_hash(b)

    def test_spawned_substreams_reproduce(self):
        """spawn() derives the same child from the same parent, and the
        child's trace is decorrelated from the parent's own."""
        a = build_trace(zipf_spec(), SeededRNG(7).spawn("driver-1"))
        b = build_trace(zipf_spec(), SeededRNG(7).spawn("driver-1"))
        other = build_trace(zipf_spec(), SeededRNG(7).spawn("driver-2"))
        parent = build_trace(zipf_spec(), SeededRNG(7))
        assert trace_hash(a) == trace_hash(b)
        assert trace_hash(a) != trace_hash(other)
        assert trace_hash(a) != trace_hash(parent)

    def test_streams_stay_decorrelated_under_interleaving(self):
        """Drawing on unrelated streams between trace builds must not shift
        the trace's own streams (no shared-state bleed)."""
        clean = build_trace(zipf_spec(), SeededRNG(11))
        rng = SeededRNG(11)
        for _ in range(100):
            rng.uniform(0.0, 1.0, stream="unrelated")
            rng.exponential(2.0, stream="also-unrelated")
        interleaved = build_trace(zipf_spec(), rng)
        assert trace_hash(clean) == trace_hash(interleaved)

    def test_two_specs_on_distinct_streams_do_not_interact(self):
        """Two workloads sharing one rng but using distinct stream names
        generate the same traces as each would alone."""
        spec_a = WorkloadSpec(
            label="a",
            popularity=ZipfPopularity(alpha=1.0, catalog=CATALOG, stream="pop-a"),
            arrivals=PoissonArrivals(100.0, stream="arr-a"),
            requests=200,
        )
        spec_b = WorkloadSpec(
            label="b",
            popularity=ZipfPopularity(alpha=1.0, catalog=CATALOG, stream="pop-b"),
            arrivals=PoissonArrivals(100.0, stream="arr-b"),
            requests=200,
        )
        alone_a = trace_hash(build_trace(spec_a, SeededRNG(5)))
        alone_b = trace_hash(build_trace(spec_b, SeededRNG(5)))
        rng = SeededRNG(5)
        together_a = build_trace(spec_a, rng)
        together_b = build_trace(spec_b, rng)
        assert trace_hash(together_a) == alone_a
        assert trace_hash(together_b) == alone_b

    def test_trace_hash_is_order_and_content_sensitive(self):
        trace = build_trace(zipf_spec(requests=50), SeededRNG(1))
        assert trace_hash(list(reversed(trace))) != trace_hash(trace)
        assert trace_hash(trace[:-1]) != trace_hash(trace)


def _fresh_node(env):
    node = ShardedForwarder(env, name="det", shards=2, cs_capacity=1024, hot_cache=64)
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant):
            return Data(
                name=interest.name, content=b"d:" + _tenant.encode(),
                freshness_period=3600.0,
            )
        node.attach_producer(tenant, handler)
    return node


def _cache_counters(node):
    """The hot-cache and per-shard cache counters, read off the node."""
    hot = node.hot_cache
    return {
        "hot_cache": (hot.hits, hot.misses, hot.insertions,
                      hot.invalidations, hot.expirations, hot.evictions),
        "shard_cs": [(shard.cs.hits, shard.cs.misses) for shard in node.shards],
        "shard_interests": [
            shard.metrics.counter("interests_received").value for shard in node.shards
        ],
    }


class TestDrivenRunDeterminism:
    def _run_once(self, seed):
        env = Environment()
        node = _fresh_node(env)
        report = WorkloadDriver(env, node, zipf_spec(), rng=SeededRNG(seed)).run()
        return report, _cache_counters(node)

    def test_identical_seed_identical_run(self):
        """Two fresh environments + nodes + drivers at one seed: identical
        trace hash AND identical cache behaviour, packet for packet."""
        a, a_cache = self._run_once(99)
        b, b_cache = self._run_once(99)
        assert a.trace_hash == b.trace_hash
        assert a.satisfied == b.satisfied == a.requests
        assert a_cache == b_cache
        assert a.latencies_s == b.latencies_s

    def test_replayed_trace_reproduces_the_generated_run(self):
        """A recorded trace replayed via trace= (no rng) drives the same
        workload: same hash, same cache counters."""
        spec = zipf_spec()
        trace = build_trace(spec, SeededRNG(123))
        env_a, env_b = Environment(), Environment()
        node_a, node_b = _fresh_node(env_a), _fresh_node(env_b)
        generated = WorkloadDriver(env_a, node_a, spec, rng=SeededRNG(123)).run()
        replayed = WorkloadDriver(env_b, node_b, spec, trace=trace).run()
        assert replayed.trace_hash == generated.trace_hash
        assert _cache_counters(node_b) == _cache_counters(node_a)
        assert replayed.satisfied == generated.satisfied
