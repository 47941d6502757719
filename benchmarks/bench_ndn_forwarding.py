"""Microbenchmark ``micro_ndn`` — NDN substrate performance.

These are wall-clock microbenchmarks of the substrate beneath LIDC: packet
codec throughput, FIB longest-prefix-match scaling, content-store operation
cost, and end-to-end Interest/Data exchanges through a two-forwarder chain.
They exist so regressions in the forwarding plane (which every LIDC operation
crosses) are caught by the benchmark harness.
"""

import itertools
import time

import pytest

from repro.ndn.cs import ContentStore
from repro.ndn.client import Consumer, Producer
from repro.ndn.face import connect
from repro.ndn.fib import Fib
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest
from repro.ndn.routing import RoutingDaemon
from repro.sim.engine import Environment
from repro.sim.topology import Link


def test_interest_wire_round_trip(benchmark):
    interest = Interest(name=Name("/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&srr=SRR2931415"))

    def round_trip():
        return Interest.decode(interest.encode())

    decoded = benchmark(round_trip)
    assert decoded.name == interest.name


def test_data_wire_round_trip_8k_payload(benchmark):
    data = Data(name=Name("/ndn/k8s/data/sample/seg=0"), content=b"x" * 8192).sign()

    def round_trip():
        return Data.decode(data.encode())

    decoded = benchmark(round_trip)
    assert len(decoded.content) == 8192


def test_fib_longest_prefix_match_10k_routes(benchmark):
    fib = Fib()
    for index in range(10_000):
        fib.add_route(f"/site/{index // 100}/svc/{index}", face_id=(index % 32) + 1, cost=index % 7)
    lookups = [Name(f"/site/{i // 100}/svc/{i}/extra/component") for i in range(0, 10_000, 97)]

    def run_lookups():
        found = 0
        for name in lookups:
            if fib.lookup(name) is not None:
                found += 1
        return found

    found = benchmark(run_lookups)
    assert found == len(lookups)


def test_content_store_insert_and_find(benchmark):
    packets = [Data(name=Name(f"/data/obj{i}"), content=b"y" * 100).sign() for i in range(500)]
    interests = [Interest(name=packet.name) for packet in packets]

    def insert_and_find():
        cs = ContentStore(capacity=1024)
        for packet in packets:
            cs.insert(packet)
        hits = sum(1 for interest in interests if cs.find(interest) is not None)
        return hits

    hits = benchmark(insert_and_find)
    assert hits == 500


def _full_store(capacity: int) -> ContentStore:
    cs = ContentStore(capacity=capacity)
    for index in range(capacity):
        cs.insert(Data(name=Name(f"/fill/{index}"), content=b"z"))
    return cs


def _eviction_cost_per_op(capacity: int, ops: int = 2_000) -> float:
    """Seconds per insert-with-eviction into an already-full store.

    Best-of-3 so a GC pause or scheduler hiccup during one measurement
    (milliseconds total at 1k entries) cannot inflate the flatness ratio
    asserted below on noisy CI runners.
    """
    cs = _full_store(capacity)
    best = float("inf")
    for attempt in range(3):
        start = time.perf_counter()
        for index in range(ops):
            cs.insert(Data(name=Name(f"/new/{attempt}/{index}"), content=b"z"))
        best = min(best, time.perf_counter() - start)
    assert cs.evictions == 3 * ops
    return best / ops


def test_content_store_eviction_flat_scaling(benchmark):
    """Eviction cost must be flat in store size (O(1), not O(n)).

    Inserting into a full store evicts once per insert; the per-op cost at
    100k entries must stay within a small constant of the cost at 1k.  A
    linear-scan eviction fails this by two orders of magnitude.
    """
    counter = itertools.count()
    cs = _full_store(100_000)

    def insert_with_eviction():
        cs.insert(Data(name=Name(f"/bench/{next(counter)}"), content=b"z"))

    benchmark(insert_with_eviction)

    ratio = _eviction_cost_per_op(100_000) / _eviction_cost_per_op(1_000)
    benchmark.extra_info["eviction_cost_ratio_100k_vs_1k"] = round(ratio, 2)
    assert ratio < 8.0, f"eviction cost grew {ratio:.1f}x from 1k to 100k entries"


def test_content_store_prefix_lookup_large_store(benchmark):
    """can_be_prefix lookups descend the name tree instead of scanning."""
    cs = ContentStore(capacity=50_000)
    for index in range(50_000):
        cs.insert(Data(name=Name(f"/obj/{index // 100}/{index}"), content=b"z"))
    interests = [
        Interest(name=Name(f"/obj/{bucket}"), can_be_prefix=True) for bucket in range(0, 500, 7)
    ]

    def run_lookups():
        return sum(1 for interest in interests if cs.find(interest) is not None)

    found = benchmark(run_lookups)
    assert found == len(interests)


@pytest.mark.parametrize("cs_capacity", [0, 256])
def test_two_hop_interest_data_exchange(benchmark, cs_capacity):
    """End-to-end exchanges through consumer → edge forwarder → producer forwarder.

    Two rounds over the same 50 names: with a content store the second round
    is answered entirely at the edge.
    """
    items, rounds = 50, 2

    def run_exchange_batch():
        env = Environment()
        edge = Forwarder(env, "edge", cs_capacity=cs_capacity)
        origin = Forwarder(env, "origin", cs_capacity=cs_capacity)
        face_a, face_b = connect(env, edge, origin,
                                 link=Link("e", "o", latency_s=0.001), label="e-o")
        daemon_edge, daemon_origin = RoutingDaemon(edge), RoutingDaemon(origin)
        RoutingDaemon.peer(daemon_edge, face_a, daemon_origin, face_b)
        producer = Producer(env, origin, "/svc")
        for index in range(items):
            producer.publish(f"/svc/item-{index}", b"payload" * 10)
        daemon_origin.announce("/svc")
        consumer = Consumer(env, edge)
        for _round in range(rounds):
            events = [consumer.express_interest(f"/svc/item-{index}") for index in range(items)]
            env.run(until=env.all_of(events))
        return consumer.data_received, edge.cs.hits

    received, edge_hits = benchmark(run_exchange_batch)
    assert received == items * rounds
    assert edge_hits == (items * (rounds - 1) if cs_capacity else 0)
