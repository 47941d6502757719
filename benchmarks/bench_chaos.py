"""Benchmark ``chaos`` — recovery time and retry amplification under faults.

Two deterministic scenarios, both on the simulated clock (the numbers are
modelled service/recovery times, not wall-clock):

1. *Live rebalance*: a 2-shard node grows to 3 mid-stream under a
   self-healing retry policy.  Gates: zero acknowledged-frame loss (every
   exchange completes with Data), exact boundary ledgers, and a bounded
   disruption window — the time from ``resize()`` until the last affected
   exchange completes.
2. *Chaos storm*: the seeded fault schedule (kills, flaps, partitions,
   shard crashes, churn) plays against a three-cluster overlay under a
   flash-crowd + Zipf workload.  Reported: per-fault recovery time (the
   gap from each applied disruption to the next satisfied exchange),
   retry amplification (Interest transmissions per request), and the
   outcome split.  Gates: zero PIT leaks, exact ledgers, overlay whole
   again, majority of requests served.

Both scenarios replay bit-identically from their seeds; the returned dict
pins the schedule and trace hashes next to the numbers.
"""

from __future__ import annotations

import statistics

from repro.chaos import ChaosDriver, ChaosSpec, build_schedule, schedule_hash
from repro.cluster.cluster import ClusterSpec
from repro.cluster.scheduler import ShardAutoscaler
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.overlay import ComputeOverlay
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.packet import Data
from repro.ndn.shard import ShardedForwarder
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
CLIENT_EDGE = "client-edge"
TENANTS = [f"/t{i}" for i in range(8)]
CLUSTER_NAMES = ("cluster-a", "cluster-b", "cluster-c")


# ------------------------------------------------------------- scenario 1


def run_resize_scenario(requests: int = 160, resize_at_s: float = 0.04) -> dict:
    """Grow 2 -> 3 shards mid-stream; prove zero acknowledged-frame loss."""
    env = Environment()
    node = ShardedForwarder(env, name="bench", shards=2, shard_service_s=0.001)
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant):
            return Data(name=interest.name, content=b"ok" + _tenant.encode()).sign()
        node.attach_producer(tenant, handler, delay_s=0.02)
    consumer = Consumer(env, node, rng=SeededRNG(SEED))
    policy = RetryPolicy(max_retries=5, retry_nacks=True)
    completions: list = []
    finish_times: list[float] = []

    def traffic():
        rounds = requests // len(TENANTS)
        for round_index in range(rounds):
            for tenant in TENANTS:
                completion = consumer.express_interest(
                    f"{tenant}/obj/{round_index}", lifetime=10.0,
                    retry_policy=policy,
                )
                completion.callbacks.append(
                    lambda _event: finish_times.append(env.now)
                )
                completions.append(completion)
            yield env.timeout(0.01)

    def rebalance():
        yield env.timeout(resize_at_s)
        node.resize(3)

    env.process(traffic(), name="traffic")
    env.process(rebalance(), name="rebalance")
    env.run()

    report = node.rebalances[0]
    assert len(completions) == len(finish_times)
    assert all(c.ok for c in completions), "acknowledged frames were lost"
    assert node.pit_entries() == 0 and consumer.pending_count() == 0
    for stats in node.boundary_stats().values():
        assert stats["dispatcher"]["bytes_out"] == stats["shard"]["bytes_in"]
        assert stats["shard"]["bytes_out"] == stats["dispatcher"]["bytes_in"]

    # Disruption window: resize -> last completion of anything in flight.
    after = [t for t in finish_times if t > resize_at_s]
    disruption_s = (max(after) - resize_at_s) if after else 0.0
    return {
        "requests": len(completions),
        "completed": sum(1 for c in completions if c.ok),
        "pending_aborted": report.pending_aborted,
        "routes_moved": report.routes_added + report.routes_removed,
        "producers_moved": report.producers_added + report.producers_removed,
        "disruption_window_s": round(disruption_s, 6),
        "retry_amplification": round(
            consumer.interests_sent / len(completions), 4
        ),
    }


# ------------------------------------------------------------- scenario 2


def _serve_tenants(cluster: LIDCCluster) -> None:
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant, _cluster=cluster.name):
            return Data(
                name=interest.name,
                content=f"{_cluster}:{_tenant}".encode(),
                freshness_period=3600.0,
            ).sign()
        cluster.gateway_nfd.attach_producer(tenant, handler)

    original_announce = cluster.announce_prefixes
    original_withdraw = cluster.withdraw_prefixes

    def announce(cost: float = 0.0) -> None:
        original_announce(cost)
        for tenant in TENANTS:
            cluster.routing.announce(tenant, cost=cost)

    def withdraw() -> None:
        original_withdraw()
        for tenant in TENANTS:
            cluster.routing.withdraw(tenant)

    cluster.announce_prefixes = announce
    cluster.withdraw_prefixes = withdraw


DISRUPTIVE = ("node-kill", "link-down", "partition", "shard-crash")


def run_chaos_scenario(requests: int = 300, horizon_s: float = 5.0) -> dict:
    env = Environment()
    root = SeededRNG(SEED)
    overlay = ComputeOverlay(env)
    edge = overlay.add_access_router(CLIENT_EDGE)
    autoscalers = {}
    clusters = {}
    for name in CLUSTER_NAMES:
        cluster = LIDCCluster(
            env, ClusterSpec(name=name, node_count=2),
            gateway_shards=2, load_paper_datasets=False, tracer=overlay.tracer,
        )
        _serve_tenants(cluster)
        overlay.add_cluster(cluster, connect_to=[(CLIENT_EDGE, 0.005)])
        clusters[name] = cluster
        autoscalers[name] = ShardAutoscaler(
            env, cluster.gateway_nfd, interval_s=0.5,
            high_watermark=500.0, low_watermark=1.0,
            min_shards=2, max_shards=4, cooldown_s=1.0,
        )

    spec = ChaosSpec(
        label="bench-storm",
        horizon_s=horizon_s,
        clusters=CLUSTER_NAMES,
        links=tuple((name, CLIENT_EDGE) for name in CLUSTER_NAMES),
        shards=tuple((name, 2) for name in CLUSTER_NAMES),
        producers=CLUSTER_NAMES,
        kills=6, flaps=8, partitions=5, shard_crashes=10, churns=8,
        min_outage_s=0.2, max_outage_s=1.0,
    )
    schedule = build_schedule(spec, root.spawn("chaos"))
    driver = ChaosDriver(env, overlay, schedule, autoscalers=autoscalers)
    driver.start()

    satisfied_at: list[float] = []
    workload = WorkloadDriver(
        env, edge,
        WorkloadSpec(
            label="bench-flash-zipf",
            popularity=ZipfPopularity(
                alpha=1.2, catalog=make_catalog(48, tenants=TENANTS), stream="pop"
            ),
            arrivals=FlashCrowdArrivals(
                80.0, [SpikeWindow(start_s=1.0, duration_s=1.0, multiplier=5.0)],
                stream="arr",
            ),
            requests=requests,
            lifetime_s=2.0,
            retry_policy=RetryPolicy(
                max_retries=2, retry_nacks=True, initial_backoff_s=0.05
            ),
        ),
        rng=root.spawn("workload"),
        on_data=lambda record, data: satisfied_at.append(env.now),
    )
    report = workload.run()
    env.run(until=horizon_s + 9.0)

    # ---- gates.
    edge.pit.expire()
    leaks = len(edge.pit)
    for cluster in clusters.values():
        for shard in cluster.gateway_nfd.shards:
            shard.pit.expire()
        leaks += cluster.gateway_nfd.pit_entries()
        for stats in cluster.gateway_nfd.boundary_stats().values():
            assert stats["dispatcher"]["bytes_out"] == stats["shard"]["bytes_in"]
            assert stats["shard"]["bytes_out"] == stats["dispatcher"]["bytes_in"]
    assert leaks == 0, f"{leaks} PIT entries leaked"
    assert workload.consumer.pending_count() == 0
    assert sorted(overlay.clusters) == sorted(CLUSTER_NAMES)
    assert all(overlay.link_up(link.a, link.b) for link in overlay.links())
    assert report.satisfied > report.requests // 2

    # ---- recovery time: applied disruption -> next satisfied exchange.
    recoveries: list[float] = []
    for record in driver.records:
        if not record.applied or record.event.kind.value not in DISRUPTIVE:
            continue
        later = [t for t in satisfied_at if t >= record.event.t]
        if later:
            recoveries.append(min(later) - record.event.t)
    transmissions = workload.consumer.interests_sent
    injections = driver.report()
    return {
        "schedule_hash": schedule_hash(schedule),
        "trace_hash": report.trace_hash,
        "requests": report.requests,
        "satisfied": report.satisfied,
        "timeouts": report.timeouts,
        "nacks": report.nacks,
        "faults_applied": injections["applied"],
        "faults_skipped": injections["skipped"],
        "by_kind": injections["by_kind"],
        "retry_amplification": round(transmissions / report.requests, 4),
        "recovery_s": {
            "median": round(statistics.median(recoveries), 6),
            "max": round(max(recoveries), 6),
            "samples": len(recoveries),
        },
        "autoscaler_decisions": sum(
            len(scaler.decisions) for scaler in autoscalers.values()
        ),
    }


# ------------------------------------------------------------------ runner


def run_benchmark(requests: int = 300, verbose: bool = True) -> dict:
    def log(message: str) -> None:
        if verbose:
            print(message)

    resize = run_resize_scenario()
    log(
        f"  resize: {resize['completed']}/{resize['requests']} served, "
        f"{resize['pending_aborted']} in-flight rerouted, disruption "
        f"{resize['disruption_window_s']*1000:.1f} ms, amplification "
        f"{resize['retry_amplification']:.3f}x"
    )
    storm = run_chaos_scenario(requests=requests)
    log(
        f"  storm:  {storm['satisfied']}/{storm['requests']} served through "
        f"{storm['faults_applied']} faults, recovery median "
        f"{storm['recovery_s']['median']*1000:.1f} ms "
        f"(max {storm['recovery_s']['max']*1000:.1f} ms), amplification "
        f"{storm['retry_amplification']:.3f}x"
    )

    # Determinism gate: the storm replays bit-identically.
    replay = run_chaos_scenario(requests=requests)
    assert replay == storm, "chaos storm did not replay identically"
    log("PASS: zero acknowledged loss, zero leaks, bit-identical replay")

    return {"resize": resize, "storm": storm}


# ------------------------------------------------------------ pytest entry


def test_chaos_bench_smoke():
    """CI-sized run: every gate in run_benchmark at small request counts."""
    results = run_benchmark(requests=200, verbose=False)
    assert results["resize"]["completed"] == results["resize"]["requests"]
    assert results["storm"]["recovery_s"]["samples"] > 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized run (seconds, not minutes)")
    args = parser.parse_args()
    if args.smoke:
        run_benchmark(requests=200)
    else:
        run_benchmark()
