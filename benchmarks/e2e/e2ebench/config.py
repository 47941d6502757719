"""Everything the benchmark fixes in advance: topology, workloads, metrics.

``BENCHMARK.json`` at the repository root repeats the workload and metric
tables for the driver; ``test_e2e_smoke.py`` asserts the two agree.
"""

from __future__ import annotations

#: Seed used when none is given.  Later claims must also hold on a seed that
#: was not used while developing (development used 1..40, 101..110 and this
#: default).
DEFAULT_SEED = 20260927

#: ``--seconds`` of the reference run the per-workload sizes were calibrated
#: for (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 10

#: Fraction of every trace that runs before the timer starts (charged to
#: ``setup_s``).
WARMUP_FRACTION = 0.10

#: How often the whole set-up (inputs + stack + datasets + warm-up) is
#: repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Equal request slices of the timed region whose host times give
#: ``harness.slice_spread``.
SLICES = 50

# ---------------------------------------------------------------- topology

#: ``overlay3``: (cluster, WAN latency to every edge in seconds, worker
#: nodes, gateway shards).  cluster-a is nearest and smallest, cluster-c
#: farthest and largest, so saturation forces placement outward.
CLUSTERS = (
    ("cluster-a", 0.010, 1, 2),
    ("cluster-b", 0.020, 2, 1),
    ("cluster-c", 0.040, 4, 1),
)
EDGES = ("edge-0", "edge-1", "edge-2", "edge-3")
#: Edge Content Store size.  The issue proposed 256; measured, that leaves
#: the dispatcher hot cache a 6 % hit ratio on ``data_hot`` (the edges
#: absorb the head of the Zipf), below the 0.2 the separation check needs.
#: At 32 the three tiers share the repeats (edge ~0.45, hot cache ~0.3,
#: shard CS ~0.8 of what reaches each).
EDGE_CS_CAPACITY = 32
#: Placeholder datasets behind ``/ndn/k8s/data/<id>``: 128x an edge CS, 32x
#: the hot cache, equal to the gateway CS.
CATALOG_SIZE = 4096

# --------------------------------------------------------------- workloads

#: name -> (why, requests measured per second of ``--seconds``).  The count
#: is fixed by ``--seconds`` alone, never by a clock, so simulated
#: statistics are identical on both sides of an A/B.  Calibrated so that
#: ``--seconds N`` times about N seconds on the 2-core box at the commit
#: that added the benchmark (7-11 s when the box is fast, 10-15 s when slow).
WORKLOADS = {
    "data_hot": (
        "Zipf(1.1) manifest fetches: repeats absorbed by edge CS, hot cache and shard CS; per-packet cost dominates",
        2400,
    ),
    "data_scan": (
        "cyclic 8 KiB segment scan 1.5x the largest CS: zero hits in every tier, full path to the data lake each time",
        900,
    ),
    "compute_place": (
        "unique BLAST jobs at 70% of the job slots: the nearest cluster saturates and Congestion Nacks re-place work outward",
        84,
    ),
    "chaos_retry": (
        "near-uniform fetches with a RetryPolicy through a fixed 66-fault storm and a live gateway resize: Nacks, retransmission, PIT expiry",
        1560,
    ),
}

#: Runnable with ``--workload`` but no part of the benchmark (absent from
#: ``BENCHMARK.json``, never run by the driver): some of its requests fail on
#: some seeds, which the driver's contract forbids.  It keeps what
#: ``chaos_retry`` had to give up to be steady: the issue's Zipf(0.8) and a
#: storm drawn from ``--seed``.
EXTRA_WORKLOADS = {
    "chaos_hot": (
        "chaos_retry at Zipf(0.8) with the storm drawn from --seed: hot names under loss, where PIT aggregation starves a name",
        1560,
    ),
}
ALL_WORKLOADS = {**WORKLOADS, **EXTRA_WORKLOADS}

# data_hot / chaos_retry
HOT_ALPHA = 1.1
#: 2000 req/s keeps the simulated span of a run inside the file server's
#: 60 s freshness window; past it the hot cache only ever admits entries it
#: must expire on first lookup (the CS never refreshes a name it can serve).
HOT_RATE_PER_S = 2000.0
CHAOS_ALPHA = 0.2
CHAOS_HOT_ALPHA = 0.8
#: chaos_retry has a fixed simulated span, so a shorter run thins the
#: traffic instead of cutting the fault schedule short.
CHAOS_HORIZON_S = 60.0
CHAOS_LIFETIME_S = 0.25
#: ``chaos_retry`` replays this one storm whatever ``--seed`` is (which then
#: varies the traffic only).  Drawn from ``--seed``, the storm decides for
#: how long an edge's best route is black-holed, and ``sim_latency_mean_ms``
#: spreads 0.41-0.49 (IQR / median over 10 and 20 seeds) where the driver
#: accepts at most 0.25.  Of the storms 1-8 this is the mildest (mean latency
#: 69 ms; the eight range 69-193 ms); none of them fails a request.
CHAOS_STORM_SEED = 4

# data_scan
SCAN_DATASETS = 96
SCAN_SEGMENTS_PER_DATASET = 64  # 96 * 64 = 6144 names = 1.5 * 4096
SCAN_RATE_PER_S = 1000.0

# compute_place
#: Modelled BLAST runtimes in simulated seconds, one synthetic accession each.
COMPUTE_RUNTIMES_S = (30, 69, 107, 146, 184, 223, 261, 300)
COMPUTE_UTILISATION = 0.70
COMPUTE_CPU = 2
COMPUTE_MEMORY_GB = 4

# ------------------------------------------------------------------ metrics

#: name -> (unit, better, bound).  A bound is the share of the parent's
#: median by which the driver lets a metric worsen; the README has the
#: measured spreads.  Host-time bounds cover this sandbox's drift and sit
#: at the contract's maximum.  A simulated metric repeats exactly from run
#: to run (set-to-set spread 0), so the issue's rule (floor 0.01, twice the
#: set-to-set spread) would give 0.01; but the driver also takes each
#: metric's IQR / median over ten runs at ten *seeds* and wants it under the
#: bound, under a third of it by the builder's instructions.  Each simulated
#: bound is therefore three times the largest seed-to-seed spread measured
#: (0.025, 0.007, 0.016, 0.007), rounded up.  ``compare`` does not use them:
#: it pairs simulated metrics by seed and reports any change.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_us_per_request": ("us", "lower", 0.25),
    "cpu_us_per_request": ("us", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.05),
    "sim_latency_mean_ms": ("ms", "lower", 0.08),
    "sim_latency_p99_ms": ("ms", "lower", 0.03),
    "wan_bytes_per_request": ("B", "lower", 0.05),
    "first_try_fraction": ("ratio", "higher", 0.03),
}
#: Metrics on the simulated clock.
SIMULATED = frozenset({
    "sim_latency_mean_ms", "sim_latency_p99_ms", "wan_bytes_per_request", "first_try_fraction",
})

#: layer -> ((metric suffix, unit, better), ...).  ``self_us`` is host time;
#: everything else is a simulated count that must repeat exactly.
PER_LAYER = {
    "workload": (("self_us", "us", "lower"), ("trace_build_s", "s", "lower")),
    "ndn.client": (
        ("self_us", "us", "lower"), ("interests_per_request", "1/req", "lower"),
        ("retransmit_ratio", "ratio", "lower"), ("timeouts", "count", "lower"),
        ("nacks", "count", "lower"),
    ),
    "ndn.face": (
        ("self_us", "us", "lower"), ("sends_per_request", "1/req", "lower"),
        ("drops", "count", "lower"),
    ),
    "ndn.forwarder": (
        ("self_us", "us", "lower"), ("packets_per_request", "1/req", "lower"),
        ("nack_retries_per_request", "1/req", "lower"),
    ),
    "ndn.cs": (
        ("self_us", "us", "lower"), ("finds_per_request", "1/req", "lower"),
        ("inserts_per_request", "1/req", "lower"),
        ("evictions_per_request", "1/req", "lower"),
        ("hit_ratio_edge", "ratio", "higher"), ("hit_ratio_gateway", "ratio", "higher"),
    ),
    "ndn.pit": (
        ("self_us", "us", "lower"), ("inserts_per_request", "1/req", "lower"),
        ("aggregated_ratio", "ratio", "higher"), ("expired", "count", "lower"),
    ),
    "ndn.fib": (("self_us", "us", "lower"), ("lookups_per_request", "1/req", "lower")),
    "ndn.strategy": (
        ("self_us", "us", "lower"), ("hot_hit_ratio", "ratio", "higher"),
        ("hot_insertions_per_request", "1/req", "lower"),
    ),
    "ndn.shard": (
        ("self_us", "us", "lower"), ("frames_per_request", "1/req", "lower"),
        ("max_shard_share", "ratio", "lower"), ("resizes", "count", "lower"),
        ("pending_aborted", "count", "lower"),
    ),
    "ndn.packet": (
        ("self_us", "us", "lower"), ("wire_decodes_per_request", "1/req", "lower"),
        ("span_scans_per_request", "1/req", "lower"),
        ("signs_per_request", "1/req", "lower"), ("bytes_per_request", "B", "lower"),
    ),
    "ndn.routing": (("self_us", "us", "lower"), ("updates", "count", "lower")),
    "core.client": (
        ("self_us", "us", "lower"), ("polls_per_job", "1/job", "lower"),
        ("sessions_leaked", "count", "lower"),
    ),
    "core.gateway": (
        ("self_us", "us", "lower"), ("compute_interests_per_job", "1/job", "lower"),
        ("capacity_nack_ratio", "ratio", "lower"),
        ("status_unknown_ratio", "ratio", "lower"),
        ("result_cache_hit_ratio", "ratio", "higher"),
    ),
    "core.service": (("self_us", "us", "lower"), ("validations_per_job", "1/job", "lower")),
    "core.overlay": (("self_us", "us", "lower"), ("faults_applied", "count", "lower")),
    "cluster": (
        ("self_us", "us", "lower"), ("jobs_admitted", "count", "higher"),
        ("reconciles_per_job", "1/job", "lower"),
        ("placement_max_share", "ratio", "lower"), ("utilization_mean", "ratio", "higher"),
    ),
    "datalake": (
        ("self_us", "us", "lower"), ("served_per_request", "1/req", "lower"),
        ("segment_cache_builds", "count", "lower"), ("results_published", "count", "higher"),
    ),
    "genomics": (("self_us", "us", "lower"),),
    "sim.engine": (
        ("self_us", "us", "lower"), ("events_per_request", "1/req", "lower"),
        ("us_per_event", "us", "lower"), ("processes_per_request", "1/req", "lower"),
        ("peak_queue", "count", "lower"),
    ),
    "sim.trace": (("self_us", "us", "lower"), ("records_per_request", "1/req", "lower")),
    "sim.metrics": (("self_us", "us", "lower"),),
    "chaos": (
        ("self_us", "us", "lower"), ("faults_applied", "count", "lower"),
        ("faults_skipped", "count", "lower"), ("recovery_ms_p50", "ms", "lower"),
    ),
    "harness": (
        ("trace_overhead_ratio", "ratio", "lower"), ("layer_sum_ratio", "ratio", "lower"),
        ("wall_cpu_ratio", "ratio", "lower"), ("slice_spread", "ratio", "lower"),
    ),
}


def per_layer_units() -> dict[str, str]:
    """``layer.metric`` -> unit, in table order."""
    return {
        f"{layer}.{suffix}": unit
        for layer, rows in PER_LAYER.items()
        for suffix, unit, _better in rows
    }


#: A run is *disturbed* (and retried, at most twice) above these.
MAX_WALL_CPU_RATIO = 1.05
#: IQR / median of host time over the slices without a full garbage
#: collection.  The issue proposed a flat 0.15; only ``data_hot`` does the
#: same work in every slice (0.06-0.16 undisturbed).  The others have a
#: shape of their own — the scan starts evicting a third of the way in, jobs
#: arrive in lumps, the storm thins out — so each gets about 1.7x what it
#: shows on a quiet box.
MAX_SLICE_SPREAD = {
    "data_hot": 0.25, "data_scan": 0.35, "compute_place": 0.55, "chaos_retry": 0.60,
    "chaos_hot": 0.60,
}
MAX_ATTEMPTS = 3
#: No retry starts after this much of the 180 s the driver allows a run.
RETRY_BUDGET_S = 60.0

#: ``harness.layer_sum_ratio`` must fall in this range.
LAYER_SUM_RANGE = (0.98, 1.02)
