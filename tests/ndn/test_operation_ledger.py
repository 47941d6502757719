"""The operation ledger: calls into ``src/repro`` per fixed operation, pinned.

Each operation runs under a ``sys.setprofile`` hook that counts the calls
whose code object lives under ``src/repro``.  Comprehension frames are
skipped, since Python 3.12 inlines them into their function (PEP 709).
The total and the ten most-called functions of each operation are pinned
exactly, so a change that adds or removes work on the forwarding path
shows up here as a diff of the ledger, function by function.  The pins
were measured on CPython 3.11.  Functions are named by ``co_qualname``,
which 3.10 lacks, so there only the totals are checked.

The operations:

* a fetch of a name no table has seen, across a two-hop chain of
  :class:`~repro.ndn.forwarder.Forwarder`\\ s to a producer that answers
  with a pre-encoded Data, so every counted call is transit work;
* the same name asked again, answered from the edge's Content Store;
* ``Data.decode`` of an 8 KiB segment, and ``Interest.decode``;
* one compute job's whole session on a one-cluster testbed: a 5 s SLEEP
  job submitted by a named client, acknowledged, tracked to completion
  and its result fetched, with the simulation's own background work in
  that window counted too.

A name is its wire bytes (:mod:`repro.ndn.name`): no transit hop builds a
:class:`~repro.ndn.name.Component` or runs ``Name.__init__``.  The PIT keys
on those bytes, so on the fresh fetch ``Name.__hash__`` runs only for the
Content Store, which is still keyed by :class:`~repro.ndn.name.Name`.
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro.core.client import LIDCClient
from repro.core.framework import CLIENT_EDGE, LIDCTestbed
from repro.core.spec import ComputeRequest
from repro.ndn.face import LocalFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Component, Name
from repro.ndn.packet import Data, Interest, WirePacket, encode_name_value
from repro.ndn.segmentation import segment_data
from repro.sim.engine import Environment

_SRC = os.path.dirname(repro.__file__) + os.sep
#: Comprehension frames, which Python 3.12 inlines into their function (PEP 709).
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}
_QUALNAMES = sys.version_info >= (3, 11)


def _ledger(thunk) -> Counter:
    """Calls per function under ``src/repro`` while ``thunk`` runs."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(_SRC)
                and code.co_name not in _COMPREHENSIONS):
            calls[code] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


def _top_ten(calls: Counter) -> list:
    """The ten most-called functions, ties broken by name."""
    rows = sorted(
        ((count, f"{os.path.relpath(code.co_filename, _SRC)}:{code.co_qualname}")
         for code, count in calls.items()),
        key=lambda row: (-row[0], row[1]),
    )
    return [(name, count) for count, name in rows[:10]]


def _check(calls: Counter, total: int, top_ten: list) -> None:
    assert sum(calls.values()) == total
    if _QUALNAMES:
        assert _top_ten(calls) == top_ten


class _Consumer:
    """The downstream end of the chain: records what comes back."""

    def __init__(self) -> None:
        self.received: list = []

    def add_face(self, face) -> int:
        return 0

    def receive_packet(self, packet, face) -> None:
        self.received.append(packet)


class _Chain:
    """consumer -> edge -> core -> producer, over two network hops."""

    PREFIX = "/ndn/k8s/data"

    def __init__(self) -> None:
        self.env = Environment()
        self.edge = Forwarder(self.env, name="edge")
        self.core = Forwarder(self.env, name="core")
        core_face, _edge_face = connect(self.env, self.edge, self.core)
        self.edge.register_prefix(self.PREFIX, core_face)
        #: name bytes -> pre-encoded Data; the producer only hands them out.
        self.answers: dict = {}
        self.core.attach_producer(
            self.PREFIX, lambda interest: WirePacket(self.answers[interest.name_bytes])
        )
        self.consumer = _Consumer()
        self.face, _ = connect(self.env, self.consumer, self.edge, face_cls=LocalFace)

    def prepare(self, uri: str) -> bytes:
        """Encode an Interest for ``uri`` and its Data, outside any count."""
        name = Name(uri)
        data = Data(name=name, content=b"x" * 64, freshness_period=10.0)
        self.answers[encode_name_value(name)] = data.encode()
        return Interest(name=name, hop_limit=16).encode()

    def fetch(self, wire: bytes) -> None:
        self.consumer.received.clear()
        self.face.send(WirePacket(wire))
        self.env.run()
        assert [packet.is_data for packet in self.consumer.received] == [True]


@pytest.fixture
def chain() -> _Chain:
    chain = _Chain()
    chain.fetch(chain.prepare(f"{_Chain.PREFIX}/warm-up/seg=0"))
    return chain


def _runs_of(calls: Counter, function) -> int:
    return calls[function.__code__]


class TestForwardingLedger:
    def test_a_fresh_name_over_two_hops(self, chain):
        wire = chain.prepare(f"{_Chain.PREFIX}/genome-17/seg=3")
        calls = _ledger(lambda: chain.fetch(wire))
        for function in (Component.__init__, Component.__eq__, Name.__init__):
            assert _runs_of(calls, function) == 0, function.__qualname__
        assert _runs_of(calls, Name.__hash__) == FRESH_FETCH_NAME_HASHES
        _check(calls, FRESH_FETCH_TOTAL, FRESH_FETCH_TOP_TEN)

    def test_an_edge_content_store_hit(self, chain):
        uri = f"{_Chain.PREFIX}/genome-17/seg=3"
        chain.fetch(chain.prepare(uri))
        again = Interest(name=Name(uri), hop_limit=16).encode()  # a new nonce
        hits = chain.edge.metrics.counter("cs_hits").value
        calls = _ledger(lambda: chain.fetch(again))
        assert chain.edge.metrics.counter("cs_hits").value == hits + 1
        for function in (Component.__init__, Component.__eq__, Name.__init__):
            assert _runs_of(calls, function) == 0, function.__qualname__
        _check(calls, CS_HIT_TOTAL, CS_HIT_TOP_TEN)


class TestDecodeLedger:
    def test_data_decode_of_an_8_kib_segment(self):
        content = bytes(range(256)) * 64
        wire = segment_data("/ndn/k8s/data/genome-17", content, 0, 8192, 10.0).encode()
        calls = _ledger(lambda: Data.decode(wire))
        assert _runs_of(calls, Name.__init__) == 0
        _check(calls, DATA_DECODE_TOTAL, DATA_DECODE_TOP_TEN)

    def test_interest_decode(self):
        wire = Interest(name=Name("/ndn/k8s/data/genome-17/seg=3"), must_be_fresh=True,
                        hop_limit=16).encode()
        calls = _ledger(lambda: Interest.decode(wire))
        assert _runs_of(calls, Name.__init__) == 0
        _check(calls, INTEREST_DECODE_TOTAL, INTEREST_DECODE_TOP_TEN)


class TestComputeJobLedger:
    def test_one_sleep_job_submit_ack_status_result(self):
        testbed = LIDCTestbed.single_cluster(seed=0)
        client = LIDCClient(testbed.env, testbed.overlay.routers[CLIENT_EDGE], name="ledger")
        request = ComputeRequest(app="SLEEP", cpu=1, memory_gb=1, params={"duration": "5"})
        outcomes = []
        calls = _ledger(lambda: outcomes.append(
            testbed.run(until=client.submit(request, fetch_result=True).done)))
        [outcome] = outcomes
        assert outcome.succeeded and outcome.status_polls == 4
        assert "result_retrieved" in outcome.timeline
        _check(calls, COMPUTE_JOB_TOTAL, COMPUTE_JOB_TOP_TEN)


# The pins.  Before a name was its wire bytes, when every transit parse
# built Component objects and every table probe compared them one Python
# call per component, the four totals read 587, 144, 79 and 65.  Before a
# view decoded its outer header at construction and faces stopped
# re-wrapping views, the two forwarding totals read 447 and 94, led by
# ``WirePacket._header`` (47 and 12 calls) and ``WirePacket.of`` (16 and 5).
FRESH_FETCH_TOTAL = 306
FRESH_FETCH_NAME_HASHES = 6
FRESH_FETCH_TOP_TEN = [
    ('ndn/tlv.py:decode_tlv_header', 24),
    ('ndn/packet.py:WirePacket.name', 20),
    ('ndn/packet.py:WirePacket._scan', 16),
    ('ndn/packet.py:WirePacket._require', 14),
    ('ndn/packet.py:WirePacket.size', 14),
    ('sim/engine.py:Environment.now', 10),
    ('ndn/packet.py:WirePacket.name_bytes', 9),
    ('ndn/forwarder.py:Forwarder.__init__.<locals>.<lambda>', 8),
    ('sim/metrics.py:Counter.inc', 8),
    ('sim/metrics.py:MetricsRegistry.counter', 8),
]
CS_HIT_TOTAL = 62
CS_HIT_TOP_TEN = [
    ('ndn/tlv.py:decode_tlv_header', 10),
    ('ndn/packet.py:WirePacket.name', 4),
    ('ndn/packet.py:WirePacket.size', 4),
    ('ndn/packet.py:WirePacket._scan', 3),
    ('ndn/face.py:Face.deliver', 2),
    ('ndn/face.py:Face.send', 2),
    ('ndn/face.py:FaceStats.record_in', 2),
    ('ndn/face.py:FaceStats.record_out', 2),
    ('ndn/face.py:LocalFace._transmit', 2),
    ('ndn/name.py:Name.__eq__', 2),
]
DATA_DECODE_TOTAL = 38
DATA_DECODE_TOP_TEN = [
    ('ndn/tlv.py:decode_tlv_header', 14),
    ('ndn/tlv.py:_decode_var_number', 4),
    ('ndn/tlv.py:decode_nonneg_int', 3),
    ('ndn/packet.py:_parse_bytes', 2),
    ('ndn/packet.py:_parse_int', 2),
    ('ndn/tlv.py:_decode_tlv_header', 2),
    ('ndn/tlv.py:scan_tlv_spans', 2),
    ('ndn/name.py:Component.__init__', 1),
    ('ndn/name.py:Name._of', 1),
    ('ndn/name.py:Name.from_wire', 1),
]
INTEREST_DECODE_TOTAL = 23
INTEREST_DECODE_TOP_TEN = [
    ('ndn/tlv.py:decode_tlv_header', 11),
    ('ndn/name.py:Name._of', 1),
    ('ndn/name.py:Name.from_wire', 1),
    ('ndn/packet.py:Interest.__post_init__', 1),
    ('ndn/packet.py:Interest.decode', 1),
    ('ndn/packet.py:_fields', 1),
    ('ndn/packet.py:_parse_bytes', 1),
    ('ndn/packet.py:_parse_hop_limit', 1),
    ('ndn/packet.py:_parse_ms', 1),
    ('ndn/packet.py:_parse_name', 1),
]
COMPUTE_JOB_TOTAL = 2846
COMPUTE_JOB_TOP_TEN = [
    ('sim/engine.py:Environment.now', 139),
    ('ndn/packet.py:WirePacket.name', 126),
    ('ndn/packet.py:WirePacket.size', 80),
    ('ndn/tlv.py:encode_tlv', 78),
    ('ndn/name.py:Name.__hash__', 60),
    ('ndn/packet.py:WirePacket._require', 59),
    ('ndn/packet.py:WirePacket._scan', 59),
    ('sim/engine.py:Event.ok', 58),
    ('core/framework.py:LIDCTestbed.__init__.<locals>.<lambda>', 53),
    ('sim/trace.py:Tracer.record', 53),
]
