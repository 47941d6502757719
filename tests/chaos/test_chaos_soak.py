"""Acceptance soak: 50+ seeded faults under a flash-crowd Zipf workload.

A three-cluster overlay (every gateway sharded in two) is driven by a seeded flash-crowd + Zipf workload while a chaos schedule of
more than fifty fault events — kills, restarts, link flaps, partitions,
heals, shard crashes, producer churn — plays out against it.  The bar:

* zero PIT entries and zero consumer sessions leaked anywhere,
* exact boundary frame ledgers on every surviving sharded gateway,
* no cross-tenant (wrong-content) serve, ever,
* every request completed with Data or failed with a typed error — and
  every unserved one has an *expected* cause: a ``NoRoute`` Nack issued
  at an instant when the client edge had no live link to any cluster
  (fail-over between live clusters is the forwarding plane's job and
  costs the client nothing),
* the overlay whole again at the end (every pair recovered), and
* the entire run — workload counters, injection ledger, edge link
  events — replays bit-identically from the same seed.
"""

import pytest

from repro.chaos import ChaosDriver, ChaosSpec, build_schedule, schedule_hash
from repro.cluster.cluster import ClusterSpec
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.framework import CLIENT_EDGE
from repro.core.overlay import ComputeOverlay
from repro.ndn.client import RetryPolicy
from repro.ndn.packet import Data
from repro.sim.engine import Environment
from repro.sim.rng import SeededRNG
from repro.workload import (
    FlashCrowdArrivals,
    SpikeWindow,
    WorkloadDriver,
    WorkloadSpec,
    ZipfPopularity,
    make_catalog,
)

SEED = 20260808
TENANTS = [f"/soak{i}" for i in range(8)]
CLUSTER_NAMES = ("cluster-a", "cluster-b", "cluster-c")
REQUESTS = 300
DRAIN_UNTIL = 14.0


def _serve_tenants(cluster: LIDCCluster) -> None:
    """Attach tenant producers and fold the tenant prefixes into the
    cluster's announce/withdraw surface, so kills, restarts and churn
    events manage the soak routes exactly like the LIDC ones."""
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant, _cluster=cluster.name):
            return Data(
                name=interest.name,
                content=f"{_cluster}:{_tenant}".encode(),
                freshness_period=3600.0,
            )
        cluster.gateway_nfd.attach_producer(tenant, handler)

    original_announce = cluster.announce_prefixes
    original_withdraw = cluster.withdraw_prefixes

    def announce() -> None:
        original_announce()
        for tenant in TENANTS:
            cluster.routing.announce(tenant)

    def withdraw() -> None:
        original_withdraw()
        for tenant in TENANTS:
            cluster.routing.withdraw(tenant)

    cluster.announce_prefixes = announce
    cluster.withdraw_prefixes = withdraw


def _chaos_spec() -> ChaosSpec:
    return ChaosSpec(
        label="overlay-soak",
        horizon_s=5.0,
        clusters=CLUSTER_NAMES,
        links=tuple((name, CLIENT_EDGE) for name in CLUSTER_NAMES),
        shards=tuple((name, 2) for name in CLUSTER_NAMES),
        producers=CLUSTER_NAMES,
        kills=6,
        flaps=8,
        partitions=5,
        shard_crashes=10,
        churns=8,
        min_outage_s=0.2,
        max_outage_s=1.0,
    )  # 2*(6+8+5) + 10 + 8 = 56 events


def _workload_spec() -> WorkloadSpec:
    return WorkloadSpec(
        label="flash-zipf",
        popularity=ZipfPopularity(
            alpha=1.2, catalog=make_catalog(48, tenants=TENANTS), stream="pop"
        ),
        arrivals=FlashCrowdArrivals(
            80.0,
            [SpikeWindow(start_s=1.0, duration_s=1.0, multiplier=5.0)],
            stream="arr",
        ),
        requests=REQUESTS,
        lifetime_s=2.0,
        retry_policy=RetryPolicy(max_retries=2),
    )


def _far_end(link: dict) -> str:
    """The cluster end of a traced ``a``-``b`` link to the client edge."""
    return link["b"] if link["a"] == CLIENT_EDGE else link["a"]


def run_soak(seed: int) -> dict:
    """One full soak run; returns a plain-data summary for replay diffing."""
    env = Environment()
    root = SeededRNG(seed)
    overlay = ComputeOverlay(env)
    edge = overlay.add_access_router(CLIENT_EDGE)

    clusters = {}
    for name in CLUSTER_NAMES:
        cluster = LIDCCluster(
            env, ClusterSpec(name=name, node_count=2),
            gateway_shards=2, load_paper_datasets=False,
            tracer=overlay.tracer,
        )
        _serve_tenants(cluster)
        overlay.add_cluster(cluster, connect_to=[(CLIENT_EDGE, 0.005)])
        clusters[name] = cluster

    schedule = build_schedule(_chaos_spec(), root.spawn("chaos"))
    driver = ChaosDriver(env, overlay, schedule)
    driver.start()

    # Wrong-content guard: every Data must carry the tenant of the name it
    # answers (any cluster may serve it; the tenant may never be wrong).
    mismatches: list[str] = []

    def check(record, data) -> None:
        tenant = "/" + record.name.split("/")[1]
        if not bytes(data.content).endswith(b":" + tenant.encode()):
            mismatches.append(f"{record.name} <- {bytes(data.content)!r}")

    workload = WorkloadDriver(
        env, edge, _workload_spec(), rng=root.spawn("workload"), on_data=check
    )
    report = workload.run()
    # Drain the tail: late chaos events, in-flight retries, PIT lifetimes.
    env.run(until=DRAIN_UNTIL)

    # Lazy-expiry sweep before counting leaks.
    edge.pit.expire()
    pit_leaks = len(edge.pit)
    ledger_violations: list[str] = []
    for name, cluster in clusters.items():
        gateway = cluster.gateway_nfd
        for shard in gateway.shards:
            shard.pit.expire()
        pit_leaks += gateway.pit_entries()
        cluster.datalake_nfd.pit.expire()
        pit_leaks += len(cluster.datalake_nfd.pit)
        for key, stats in gateway.boundary_stats().items():
            if (stats["dispatcher"]["bytes_out"] != stats["shard"]["bytes_in"]
                    or stats["shard"]["bytes_out"] != stats["dispatcher"]["bytes_in"]):
                ledger_violations.append(f"{name}:{key}")

    return {
        "schedule_hash": schedule_hash(schedule),
        "trace_hash": report.trace_hash,
        "requests": report.requests,
        "satisfied": report.satisfied,
        "timeouts": report.timeouts,
        "nacks": report.nacks,
        "failures": report.failures,
        # Every change to the edge's links, for cause attribution: a kill,
        # a (re)join, a flap or a partition (which downs each link in turn).
        "link_events": [
            (ev.time, ev.event, ev.attrs.get("cluster") or _far_end(ev.attrs))
            for ev in overlay.tracer.filter("overlay")
            if ev.event in ("cluster-joined", "cluster-failed", "link-down", "link-up")
        ],
        "injections": driver.report(),
        "clusters_alive": sorted(overlay.clusters),
        "links_up": all(
            overlay.link_up(link.a, link.b) for link in overlay.links()
        ),
        "pit_leaks": pit_leaks,
        "pending_sessions": workload.consumer.pending_count(),
        "ledger_violations": ledger_violations,
        "mismatches": mismatches,
    }


def live_clusters(link_events, at: float) -> set[str]:
    """Clusters the client edge could forward to at sim time ``at``.

    Every cluster hangs off the edge by one link, so a cluster is a live
    next hop exactly when it has joined (a restart brings a fresh, up link)
    and that link has not been downed since.  Records stamped ``at`` count:
    a kill Nacks the Interests it strands before it is traced.
    """
    live: set[str] = set()
    for time, event, cluster in link_events:
        if time > at:
            break
        if event in ("cluster-joined", "link-up"):
            live.add(cluster)
        else:
            live.discard(cluster)
    return live


@pytest.fixture(scope="module")
def soak():
    return run_soak(SEED)


@pytest.fixture(scope="module")
def other_storm():
    return run_soak(SEED + 1)


class TestChaosSoak:
    def test_at_least_fifty_faults_fired(self, soak):
        injections = soak["injections"]
        assert injections["events"] >= 50
        assert injections["fired"] == injections["events"]
        assert injections["applied"] > 0
        # Every fault class actually landed at least once.
        for kind in ("node-kill", "node-restart", "link-down", "link-up",
                     "partition", "heal", "shard-crash", "producer-churn"):
            assert injections["by_kind"].get(kind, 0) > 0, kind

    def test_every_request_completed_or_failed_typed(self, soak):
        assert soak["requests"] == REQUESTS
        assert (soak["satisfied"] + soak["timeouts"] + soak["nacks"]
                == soak["requests"])
        # The overlay self-heals inside the forwarding plane: at this seed
        # no request meets an instant with every cluster down, so 56 faults
        # cost the client nothing (291 of 300 before liveness-aware selection).
        assert soak["satisfied"] == REQUESTS
        assert soak["failures"] == []

    def test_every_unserved_request_has_a_typed_expected_cause(self, other_storm):
        """The next seed's storm kills all three clusters at once for 156 ms."""
        assert other_storm["satisfied"] == 296
        assert len(other_storm["failures"]) == 4 == other_storm["nacks"]
        assert other_storm["timeouts"] == 0
        for at, name, cause in other_storm["failures"]:
            assert cause == "NoRoute", (at, name, cause)
            assert live_clusters(other_storm["link_events"], at) == set(), (at, name)
        # The oracle is not vacuous: most of that storm has a live cluster.
        times = [time for time, _event, _cluster in other_storm["link_events"]]
        assert sum(bool(live_clusters(other_storm["link_events"], t)) for t in times) \
            > len(times) // 2

    def test_no_stale_or_cross_tenant_serves(self, soak):
        assert soak["mismatches"] == []

    def test_zero_leaks_and_exact_ledgers(self, soak):
        assert soak["pit_leaks"] == 0
        assert soak["pending_sessions"] == 0
        assert soak["ledger_violations"] == []

    def test_overlay_is_whole_again(self, soak):
        assert soak["clusters_alive"] == sorted(CLUSTER_NAMES)
        assert soak["links_up"]
        assert soak["injections"]["still_down"] == []
        assert soak["injections"]["still_partitioned"] == []

    def test_replay_is_bit_identical(self, soak):
        assert run_soak(SEED) == soak

    def test_different_seed_is_a_different_storm(self, soak, other_storm):
        assert other_storm["schedule_hash"] != soak["schedule_hash"]
        assert other_storm["trace_hash"] != soak["trace_hash"]
