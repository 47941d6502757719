"""Behavioural tests for the workload driver."""

import pytest

from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import Data
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.workload import (
    FlashCrowdArrivals,
    PoissonArrivals,
    ScanPopularity,
    SpikeWindow,
    WorkloadDriver,
    WorkloadSpec,
    ZipfPopularity,
    build_trace,
    make_catalog,
)

CATALOG = make_catalog(64)
TENANTS = sorted({f"/{name.split('/')[1]}" for name in CATALOG})


def _producers(node, freshness=3600.0, tenants=TENANTS):
    for tenant in tenants:
        def handler(interest, _tenant=tenant):
            return Data(
                name=interest.name, content=b"ok", freshness_period=freshness
            )
        node.attach_producer(tenant, handler)


def shard_interests(node):
    return [shard.metrics.counter("interests_received").value for shard in node.shards]


class TestWorkloadDriver:
    def test_zipf_workload_through_a_sharded_node(self, env):
        node = ShardedForwarder(env, name="d", shards=2, cs_capacity=1024, hot_cache=64)
        _producers(node)
        spec = WorkloadSpec(
            label="zipf",
            popularity=ZipfPopularity(alpha=1.2, catalog=CATALOG),
            arrivals=PoissonArrivals(500.0),
            requests=600,
        )
        report = WorkloadDriver(env, node, spec, rng=SeededRNG(1)).run()
        assert report.satisfied == report.requests == 600
        assert report.timeouts == 0 and report.nacks == 0
        # Skewed repeats are absorbed by the dispatcher hot cache.
        assert node.hot_cache.hits > 200
        # Both shards saw traffic (the catalog spans many tenants).
        assert all(n > 0 for n in shard_interests(node))
        # Clean exit: no PIT entries, no pending sessions.
        assert node.pit_entries() == 0
        assert report.spec["popularity"]["alpha"] == 1.2

    def test_scan_workload_hits_nothing_by_construction(self, env):
        node = ShardedForwarder(env, name="s", shards=2, cs_capacity=1024, hot_cache=64)
        _producers(node)
        spec = WorkloadSpec(
            label="scan",
            popularity=ScanPopularity(tenants=TENANTS),
            arrivals=PoissonArrivals(500.0),
            requests=400,
        )
        report = WorkloadDriver(env, node, spec, rng=SeededRNG(2)).run()
        assert report.satisfied == 400
        assert node.hot_cache.hits == 0
        assert sum(shard.cs.hits for shard in node.shards) == 0

    def test_hot_cache_absorbs_skew_and_the_flash_crowd(self):
        """Hot-cache hits are simulation counters, so they repeat exactly at
        one seed: steeper skew caches better, and a flash crowd is served
        mostly at the dispatcher."""
        catalog = make_catalog(256)
        tenants = sorted({f"/{name.split('/')[1]}" for name in catalog})
        requests = 600
        specs = [
            WorkloadSpec(
                label=f"zipf_{alpha}",
                popularity=ZipfPopularity(alpha=alpha, catalog=catalog),
                arrivals=PoissonArrivals(500.0),
                requests=requests,
            )
            for alpha in (0.8, 1.2)
        ]
        specs.append(WorkloadSpec(
            label="flash",
            popularity=ZipfPopularity(alpha=1.4, catalog=catalog),
            arrivals=FlashCrowdArrivals(
                200.0, [SpikeWindow(start_s=0.5, duration_s=1.5, multiplier=8.0)]
            ),
            requests=requests,
        ))
        hits = {}
        for spec in specs:
            env = Environment()
            node = ShardedForwarder(env, name="skew", shards=2, cs_capacity=2048, hot_cache=256)
            _producers(node, tenants=tenants)
            report = WorkloadDriver(env, node, spec, rng=SeededRNG(20260401)).run()
            assert report.satisfied == requests
            assert all(n > 0 for n in shard_interests(node)), spec.label
            hits[spec.label] = node.hot_cache.hits
        assert hits["zipf_1.2"] > hits["zipf_0.8"]
        assert hits["zipf_1.2"] > requests // 2
        assert hits["flash"] > requests // 2

    def test_plain_forwarder_reports_its_cs(self, env):
        node = Forwarder(env, name="plain", cs_capacity=256)
        _producers(node)
        spec = WorkloadSpec(
            label="uniform",
            popularity=ZipfPopularity(alpha=1.5, catalog=CATALOG),
            arrivals=PoissonArrivals(500.0),
            requests=300,
        )
        report = WorkloadDriver(env, node, spec, rng=SeededRNG(3)).run()
        assert report.satisfied == 300
        assert node.cs.hits > 0

    def test_unanswerable_names_are_recorded_as_nacks(self, env):
        node = ShardedForwarder(env, name="void", shards=2, cs_capacity=0)
        # No producers: everything NACKs with NO_ROUTE.
        spec = WorkloadSpec(
            label="void",
            popularity=ZipfPopularity(alpha=1.0, catalog=CATALOG),
            arrivals=PoissonArrivals(500.0),
            requests=50,
            lifetime_s=1.0,
        )
        report = WorkloadDriver(env, node, spec, rng=SeededRNG(4)).run()
        assert report.satisfied == 0
        assert report.nacks == 50
        assert node.pit_entries() == 0

    def test_horizon_truncates_the_trace(self):
        spec = WorkloadSpec(
            label="short",
            popularity=ZipfPopularity(alpha=1.0, catalog=CATALOG),
            arrivals=PoissonArrivals(100.0),
            requests=10_000,
            horizon_s=2.0,
        )
        trace = build_trace(spec, SeededRNG(5))
        assert len(trace) < 10_000
        assert all(record.t <= 2.0 for record in trace)
        # ~200 expected at 100/s over 2s.
        assert 120 < len(trace) < 280

    def test_on_data_hook_sees_every_satisfied_exchange(self, env):
        node = ShardedForwarder(env, name="h", shards=2, cs_capacity=256, hot_cache=32)
        _producers(node)
        seen = []
        spec = WorkloadSpec(
            label="hook",
            popularity=ZipfPopularity(alpha=1.0, catalog=CATALOG),
            arrivals=PoissonArrivals(300.0),
            requests=100,
        )
        driver = WorkloadDriver(
            env, node, spec, rng=SeededRNG(6),
            on_data=lambda record, data: seen.append((record.name, bytes(data.content))),
        )
        report = driver.run()
        assert len(seen) == report.satisfied == 100
        assert all(content == b"ok" for _name, content in seen)

    def test_validation(self):
        spec = WorkloadSpec(
            label="bad",
            popularity=ZipfPopularity(alpha=1.0, catalog=CATALOG),
            arrivals=PoissonArrivals(100.0),
            requests=0,
        )
        with pytest.raises(ValueError):
            build_trace(spec, SeededRNG(0))
        env = Environment()
        with pytest.raises(ValueError):
            WorkloadDriver(env, Forwarder(env, name="x"), spec)  # no rng, no trace
