"""One encoded buffer per data-lake segment, however many tables hold it.

A segment travels file server -> data-lake forwarder -> 2-shard gateway
(dispatcher, shard boundary, owning shard) -> consumer.  Every holder on
the way keeps a view of the bytes the file server encoded: the file
server's own cache, the data-lake Content Store, the owning shard's Content
Store and the dispatcher hot cache.  None of them holds a second copy or
a decoded packet object, not even after the consumer decoded the Data it
was handed.
"""

import gc
import tracemalloc

from repro.cluster.apiserver import ApiServer
from repro.cluster.storage import NFSServer, StorageController
from repro.datalake.fileserver import FileServer
from repro.datalake.repo import DataLake
from repro.ndn.client import Consumer
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Interest
from repro.ndn.segmentation import DEFAULT_SEGMENT_SIZE
from repro.ndn.shard import ShardedForwarder
from repro.sim.engine import Environment
from repro.sim.topology import Link

DATA = "/ndn/k8s/data"


def build(payload: bytes):
    """A data lake holding ``payload`` as dataset ``blob``, served by a file
    server on an upstream forwarder that a 2-shard gateway routes to."""
    env = Environment()
    pvc = StorageController(ApiServer(clock=lambda: env.now), NFSServer("nfs")).create_pvc(
        "lake-pvc", "1Gi")
    lake = DataLake(pvc, clock=lambda: env.now)
    lake.publish_bytes("blob", payload)
    upstream = Forwarder(env, "datalake")
    server = FileServer(env, upstream, lake)
    gateway = ShardedForwarder(env, name="gateway", shards=2)
    face, _ = connect(env, gateway, upstream, Link("gateway", "datalake", latency_s=0.001))
    gateway.register_prefix(DATA, face)
    return env, server, upstream, gateway, Consumer(env, gateway)


def test_every_holder_of_a_segment_shares_the_file_servers_buffer():
    env, server, upstream, gateway, consumer = build(bytes(range(256)) * 32)
    name = Name(f"{DATA}/blob/seg=0")
    data = env.run(until=consumer.express_interest(name))
    assert len(data.content) == DEFAULT_SEGMENT_SIZE

    _payload, segments = server._segment_cache["blob"]
    cached = segments[0]
    holders = {"data-lake CS": upstream.cs.find(Interest(name=name))}
    for shard in gateway.shards:
        if name in shard.cs:
            holders[f"{shard.name} CS"] = shard.cs.find(Interest(name=name))
    holders["hot cache"] = gateway.hot_cache.get(cached.name_bytes, env.now)
    assert len(holders) == 3, holders
    assert not cached.is_decoded
    for holder, view in holders.items():
        assert view is not None, holder
        assert view._buf is cached._buf, f"{holder} holds a copy of the segment"
        assert not view.is_decoded, f"{holder} holds a decoded object"


def buffer_bytes(snapshot) -> int:
    """Bytes held in blocks of at least 1 KiB: segment payloads, wires and
    their copies, not the per-packet objects (names, table entries, views)
    whose sizes differ between Python versions."""
    return sum(trace.size for trace in snapshot.traces if trace.size >= 1024)


def test_a_segment_scan_retains_one_copy_of_each_segment():
    """Scanning 64 segments and letting the simulation drain leaves each
    segment's bytes on this node once — the encoded wire every table
    shares — beside the lake's own payload, and no content chunk, shard
    boundary copy or consumer-decoded copy."""
    payload = bytes(range(256)) * (64 * DEFAULT_SEGMENT_SIZE // 256)
    env, _server, _upstream, _gateway, consumer = build(payload)
    gc.collect()
    tracemalloc.start()
    try:
        before = buffer_bytes(tracemalloc.take_snapshot())
        fetched = env.run_process(consumer.fetch_segments(f"{DATA}/blob"))
        assert fetched == payload
        del fetched
        env.run()
        gc.collect()
        retained = buffer_bytes(tracemalloc.take_snapshot()) - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.5 * len(payload), f"retained {retained / len(payload):.2f}x the payload"
