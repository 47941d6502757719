"""Benchmark ``fastpath`` — the dispatcher hot cache against a shard round-trip.

A repeat-name workload through a 2-shard :class:`ShardedForwarder` with
the dispatcher hot cache enabled (every exchange answered at the
dispatcher) against the identical node with the cache disabled (every
exchange hashed to its shard, framed across the boundary, answered by the
shard CS and framed back).  Measured the repo-standard way — interleaved
A/B on the same machine, >= 5 reps, gating on the **median of paired
ratios** (each A/B pair runs back to back, so the machine's multi-second
throughput drift cancels; the raw sample medians are reported alongside)
— and counter-enforced to perform **zero wire-level decodes** in transit.
Gate: hit >= 3x faster per exchange.

Plus the dispatch-key micro-invariant: repeat dispatch of the same
:class:`WirePacket` never re-walks TLV spans (the ``name_bytes`` memo),
asserted against the ``WirePacket.span_scans`` counter.
"""

from __future__ import annotations

import statistics
import time

from bench_shard_scaling import TENANTS

from repro.ndn.face import Face, LocalFace, connect
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, WirePacket
from repro.ndn.shard import ShardedForwarder, key_from_name_bytes, make_shard_picker
from repro.sim.engine import Environment

PAYLOAD = b"f" * 256
#: Freshness long enough that no hot-cache entry expires mid-benchmark.
FRESHNESS_S = 3600.0


class _Collector:
    """Wire-aware driver endpoint: counts the Data coming back."""

    accepts_wire_packets = True

    def __init__(self) -> None:
        self.received: list[WirePacket] = []

    def add_face(self, face: Face) -> int:
        return 0

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        self.received.append(packet)


# ------------------------------------------------------- hot cache vs shards


def _fresh_producers(node) -> None:
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant):
            return Data(
                name=interest.name, content=PAYLOAD, freshness_period=FRESHNESS_S
            ).sign()
        node.attach_producer(tenant, handler)


def measure_repeat_name_exchange_s(
    hot_cache: int, exchanges: int, hot_names: int = 64
) -> float:
    """Wall-clock seconds per exchange on a repeat-name workload.

    ``hot_cache=0`` is the full-round-trip baseline: every repeat is
    hashed, framed across the shard boundary, answered by the shard CS
    and framed back.  With the cache on, every measured exchange must be
    a dispatcher hit, and either way the measured phase performs zero
    wire decodes (the driver never materialises packets).
    """
    env = Environment()
    node = ShardedForwarder(
        env, name="fastpath", shards=2, cs_capacity=4096, hot_cache=hot_cache
    )
    _fresh_producers(node)
    driver = _Collector()
    driver_face, _ = connect(env, driver, node, face_cls=LocalFace)
    names = [f"{TENANTS[i % len(TENANTS)]}/hot{i % hot_names}" for i in range(hot_names)]
    # Prime: first exchange per name lands in the shard CS (and, when
    # enabled, is mirrored into the dispatcher hot cache on egress).
    for name in names:
        driver_face.send(WirePacket(Interest(name=Name(name), hop_limit=16).encode()))
    env.run()
    assert len(driver.received) == hot_names
    driver.received.clear()
    wires = [
        Interest(name=Name(names[i % hot_names]), hop_limit=16).encode()
        for i in range(exchanges)
    ]
    decodes_before = WirePacket.wire_decodes
    start = time.perf_counter()
    for wire in wires:
        driver_face.send(WirePacket(wire))
    env.run()
    elapsed = time.perf_counter() - start
    assert len(driver.received) == exchanges
    # The transit-decode contract holds on both sides of the A/B.
    assert WirePacket.wire_decodes == decodes_before
    if hot_cache:
        assert node.hot_cache is not None and node.hot_cache.hits == exchanges, (
            "repeat-name workload must be answered entirely by the hot cache"
        )
    else:
        assert sum(shard.cs.hits for shard in node.shards) == exchanges
    return elapsed / exchanges


# ------------------------------------------------------------ micro-invariant


def check_repeat_dispatch_never_rescans(rounds: int = 5000) -> dict:
    """Repeat dispatch of one view: 0 span re-walks, and a timing contrast.

    The memoised path derives the dispatch key ``rounds`` times from the
    same view; the unmemoised contrast builds a fresh view per round (one
    span scan each).  The assertion is on the scan counter — exact and
    machine-independent; the timing ratio is informational.
    """
    wire = Interest(name=Name("/u000/hot/object/with/components"), hop_limit=16).encode()
    picker = make_shard_picker(4)
    view = WirePacket(wire)
    _ = view.name_bytes  # the single allowed scan
    scans_before = WirePacket.span_scans
    start = time.perf_counter()
    for _round in range(rounds):
        picker(key_from_name_bytes(view.name_bytes, 1))
    memoised_s = time.perf_counter() - start
    rescans = WirePacket.span_scans - scans_before
    assert rescans == 0, (
        f"repeat dispatch of the same view re-scanned spans {rescans} times"
    )
    start = time.perf_counter()
    for _round in range(rounds):
        fresh = WirePacket(wire)
        picker(key_from_name_bytes(fresh.name_bytes, 1))
    fresh_s = time.perf_counter() - start
    return {
        "rounds": rounds,
        "rescans": rescans,
        "memoised_us": memoised_s / rounds * 1e6,
        "fresh_view_us": fresh_s / rounds * 1e6,
    }


# -------------------------------------------------------------------- driver


def run_benchmark(exchanges: int = 2000, reps: int = 5, verbose: bool = True) -> dict:
    def log(message: str) -> None:
        if verbose:
            print(message)

    # Hot-cache hit vs full shard round-trip, interleaved A/B.  The
    # machine's throughput drifts on multi-second timescales and single
    # short samples catch upward-only spikes (GC, scheduler), so each
    # side of a pair takes the best of 3 consecutive runs (the repo's
    # best-of-N practice: min filters one-sided noise) and the gated
    # statistic is the median of *paired* ratios — each pair runs back
    # to back — with the medians of the per-pair samples alongside.
    hit_samples, round_trip_samples, hit_ratios = [], [], []
    for _rep in range(reps):
        hit = min(measure_repeat_name_exchange_s(128, exchanges) for _ in range(3))
        round_trip = min(
            measure_repeat_name_exchange_s(0, exchanges) for _ in range(3)
        )
        hit_samples.append(hit)
        round_trip_samples.append(round_trip)
        hit_ratios.append(round_trip / hit)
    hit_s = statistics.median(hit_samples)
    round_trip_s = statistics.median(round_trip_samples)
    hit_speedup = statistics.median(hit_ratios)
    log(f"hot-cache hit: {hit_s * 1e6:.2f}us/exchange vs full shard round-trip "
        f"{round_trip_s * 1e6:.2f}us = {hit_speedup:.2f}x "
        f"(median paired ratio over {reps} interleaved reps, 0 decodes in every run)")

    micro = check_repeat_dispatch_never_rescans()
    log(f"dispatch-key memo: {micro['memoised_us']:.3f}us vs fresh-view "
        f"{micro['fresh_view_us']:.3f}us per dispatch, 0 span re-walks")

    # Gates.
    assert hit_speedup >= 3.0, (
        f"hot-cache hit only {hit_speedup:.2f}x faster than the shard round-trip"
    )
    log("PASS: hit >= 3x round-trip, 0 transit decodes everywhere")

    return {
        "hot_cache": {
            "hit_us": hit_s * 1e6,
            "round_trip_us": round_trip_s * 1e6,
            "speedup": hit_speedup,
            "paired_ratios": hit_ratios,
            "hit_samples_us": [s * 1e6 for s in hit_samples],
            "round_trip_samples_us": [s * 1e6 for s in round_trip_samples],
        },
        "dispatch_key_micro": micro,
        "transit_decodes": 0,
    }


# ------------------------------------------------------------ pytest entries


def test_fastpath_meets_the_bar():
    """Hot-cache >= 3x the shard round-trip, 0 decodes."""
    run_benchmark(exchanges=2500, reps=5, verbose=False)


def test_repeat_dispatch_of_same_view_does_not_rescan_spans():
    """The name_bytes memo: repeat dispatch performs zero span re-walks."""
    micro = check_repeat_dispatch_never_rescans(rounds=2000)
    assert micro["rescans"] == 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized run (seconds, not minutes)")
    args = parser.parse_args()
    if args.smoke:
        # Samples stay long (>= 2500 in-sim exchanges): shorter runs sit
        # inside this class of machine's scheduler jitter and the paired
        # ratios get noisy.
        run_benchmark(exchanges=2500, reps=5)
    else:
        run_benchmark()
