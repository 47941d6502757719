"""Tests for the bytes-first face transport API.

Covers the WirePacket contract on ``send()``/``deliver()``, the clear error
raised for legacy endpoints now that the decode-on-delivery shim is gone,
the ``drops`` counter, the ``connect()`` link pass-through fix for
NetworkFace subclasses, and the no-decode guarantee for packets transiting
a forwarder.
"""

import pytest

from repro.exceptions import NDNError
from repro.ndn.client import Consumer, Producer
from repro.ndn.face import FaceStats, LocalFace, NetworkFace, connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, WirePacket
from repro.ndn.routing import RoutingDaemon
from repro.sim.engine import Environment
from repro.sim.topology import Link


class WireCollector:
    """A wire-aware endpoint that records exactly what its faces deliver."""

    accepts_wire_packets = True

    def __init__(self):
        self.received = []
        self.faces = []

    def add_face(self, face):
        self.faces.append(face)
        return len(self.faces)

    def receive_packet(self, packet, face):
        self.received.append(packet)


class LegacyCollector:
    """An endpoint predating the wire API: no ``accepts_wire_packets``."""

    def __init__(self):
        self.received = []
        self.faces = []

    def add_face(self, face):
        self.faces.append(face)
        return len(self.faces)

    def receive_packet(self, packet, face):
        self.received.append(packet)


class TestConnectLinkPassThrough:
    def test_network_face_subclass_keeps_link(self):
        class TaggedFace(NetworkFace):
            pass

        env = Environment()
        link = Link("a", "b", latency_s=0.25, bandwidth_bps=5e6)
        face_a, face_b = connect(
            env, WireCollector(), WireCollector(), link=link, face_cls=TaggedFace
        )
        assert isinstance(face_a, TaggedFace) and isinstance(face_b, TaggedFace)
        assert face_a.link is link
        assert face_b.link is link

    def test_local_face_ignores_link(self):
        env = Environment()
        face_a, _ = connect(
            env, WireCollector(), WireCollector(),
            link=Link("a", "b", latency_s=0.25), face_cls=LocalFace,
        )
        assert isinstance(face_a, LocalFace)


class TestWireDelivery:
    def test_wire_aware_endpoint_receives_view(self):
        env = Environment()
        sender, receiver = WireCollector(), WireCollector()
        face_a, _ = connect(env, sender, receiver, face_cls=LocalFace)
        face_a.send(Interest(name=Name("/w")))
        env.run()
        assert len(receiver.received) == 1
        assert isinstance(receiver.received[0], WirePacket)

    def test_legacy_endpoint_delivery_raises_clear_error(self):
        """The decode-on-delivery shim is gone: delivery to an endpoint
        without ``accepts_wire_packets`` fails loudly, naming the endpoint
        and the fix."""
        env = Environment()
        sender, receiver = WireCollector(), LegacyCollector()
        face_a, _ = connect(env, sender, receiver, face_cls=LocalFace)
        with pytest.raises(NDNError, match="LegacyCollector.*accepts_wire_packets"):
            face_a.send(Interest(name=Name("/legacy")))
        assert receiver.received == []

    def test_legacy_endpoint_error_mentions_shim_removal(self):
        env = Environment()
        face_a, _ = connect(env, WireCollector(), LegacyCollector(), face_cls=LocalFace)
        with pytest.raises(NDNError, match="shim was removed"):
            face_a.send(Data(name=Name("/legacy/d"), content=b"x").sign())

    @pytest.mark.parametrize("face_cls", [NetworkFace, LocalFace])
    def test_receiver_error_on_a_delayed_face_propagates_out_of_run(self, face_cls):
        """Delayed delivery is a callback on the link's Timeout, not a
        process of its own: whatever the receiving endpoint raises surfaces
        from ``run()`` at the arrival instant instead of being parked in
        ``unhandled_failures``, and the engine stays usable afterwards."""

        class Exploding(WireCollector):
            def receive_packet(self, packet, face):
                raise RuntimeError("endpoint bug")

        env = Environment()
        face_a, _ = connect(
            env, WireCollector(), Exploding(), link=Link("a", "b", latency_s=0.01),
            face_cls=face_cls,
        )
        if face_cls is LocalFace:
            face_a.delay_s = 0.01
        face_a.send(Interest(name=Name("/boom/1")))
        face_a.send(Interest(name=Name("/boom/2")))
        with pytest.raises(RuntimeError, match="endpoint bug"):
            env.run()
        assert env.now == pytest.approx(0.01, abs=1e-3)
        assert env.unhandled_failures == []
        with pytest.raises(RuntimeError, match="endpoint bug"):
            env.run()  # the second packet still arrives
        assert env.queue_size == 0

    def test_legacy_endpoint_across_a_link_raises_from_run(self):
        env = Environment()
        face_a, _ = connect(env, WireCollector(), LegacyCollector())
        face_a.send(Interest(name=Name("/legacy")))
        with pytest.raises(NDNError, match="LegacyCollector.*accepts_wire_packets"):
            env.run()

    def test_one_engine_event_per_packet_per_link(self):
        env = Environment()
        receiver = WireCollector()
        face_a, _ = connect(env, WireCollector(), receiver)
        for index in range(5):
            face_a.send(Interest(name=Name(f"/w/{index}")))
        assert env.queue_size == 5
        env.run()
        assert [str(packet.name) for packet in receiver.received] == [f"/w/{i}" for i in range(5)]

    def test_bytes_counted_as_wire_length(self):
        env = Environment()
        sender, receiver = WireCollector(), WireCollector()
        face_a, face_b = connect(env, sender, receiver, face_cls=LocalFace)
        data = Data(name=Name("/bytes"), content=b"p" * 100).sign()
        face_a.send(data)
        env.run()
        assert face_a.stats.bytes_out == len(data.encode())
        assert face_b.stats.bytes_in == len(data.encode())
        assert face_a.stats.data_out == 1
        assert face_b.stats.data_in == 1

    def test_face_stats_snapshot_includes_drops(self):
        stats = FaceStats()
        assert stats.as_dict()["drops"] == 0


class TestDropsCounter:
    def test_send_on_down_face_counts_drop(self):
        env = Environment()
        face_a, _ = connect(env, WireCollector(), WireCollector(), face_cls=LocalFace)
        face_a.up = False
        face_a.send(Interest(name=Name("/drop")))
        assert face_a.stats.drops == 1
        assert face_a.stats.interests_out == 0

    def test_deliver_on_down_face_counts_drop(self):
        env = Environment()
        receiver = WireCollector()
        face_a, face_b = connect(env, WireCollector(), receiver, face_cls=LocalFace)
        face_b.up = False
        face_a.up = True  # keep sending side alive: packet dies on delivery
        face_a.send(Interest(name=Name("/drop")))
        env.run()
        assert face_b.stats.drops == 1
        assert receiver.received == []

    def test_data_lost_on_down_downstream_face_counts_drop(self):
        env = Environment()
        forwarder = Forwarder(env, "fwd", cs_capacity=0)
        downstream, upstream = WireCollector(), WireCollector()
        down_face, fwd_down = connect(env, downstream, forwarder, face_cls=LocalFace)
        up_face, fwd_up = connect(env, upstream, forwarder, face_cls=LocalFace)
        forwarder.register_prefix("/p", fwd_up)
        down_face.send(Interest(name=Name("/p/x")))
        env.run()
        # The Interest is pending upstream; now the downstream face dies and
        # the returning Data must be counted as a drop, not silently eaten.
        fwd_down.up = False
        up_face.send(Data(name=Name("/p/x"), content=b"late").sign())
        env.run()
        assert fwd_down.stats.drops == 1
        assert all(p.packet_type != 0x06 for p in downstream.received)

    def test_forwarder_exposes_per_face_drops(self):
        env = Environment()
        forwarder = Forwarder(env, "fwd", cs_capacity=0)
        # A latency link keeps the Interest in flight long enough to close
        # the face underneath it: it must die as a counted drop on delivery.
        consumer = Consumer(env, forwarder, link=Link("c", "f", latency_s=0.01))
        consumer.express_interest("/nowhere/road", lifetime=0.5)
        consumer.face.close()
        env.run(until=1.0)
        per_face = forwarder.stats()["face_stats"]
        assert sum(counters["drops"] for counters in per_face.values()) >= 1


class TestNoDecodeInTransit:
    def test_forwarder_transits_data_without_decoding(self):
        """A wire-borne Data crossing two hops is never fully decoded."""
        env = Environment()
        edge = Forwarder(env, "edge", cs_capacity=16)
        origin = Forwarder(env, "origin", cs_capacity=0)
        face_eo, face_oe = connect(
            env, edge, origin, link=Link("e", "o", latency_s=0.001), label="e-o"
        )
        daemon_edge, daemon_origin = RoutingDaemon(edge), RoutingDaemon(origin)
        RoutingDaemon.peer(daemon_edge, face_eo, daemon_origin, face_oe)
        daemon_origin.announce("/svc")

        collector = WireCollector()
        app_face, fwd_face = connect(env, collector, edge, face_cls=LocalFace)

        # Express the Interest and answer it with wire-only packets, as if
        # both arrived off a real network: no packet objects attached.
        data_wire = Data(name=Name("/svc/item"), content=b"payload").encode()
        interest_wire = Interest(name=Name("/svc/item")).encode()

        producer_seen = []

        def producer_handler(interest_view):
            producer_seen.append(interest_view)
            return WirePacket(data_wire)

        origin.attach_producer("/svc", producer_handler)

        before = WirePacket.wire_decodes
        app_face.send(WirePacket(interest_wire))
        env.run(until=1.0)

        # The Data crossed origin and edge and reached the wire-aware app
        # without a single wire-level decode anywhere along the path.
        assert WirePacket.wire_decodes == before
        assert len(collector.received) == 1
        delivered = collector.received[0]
        assert isinstance(delivered, WirePacket)
        assert delivered.wire == data_wire
        # The producer saw a lazy view too.
        assert isinstance(producer_seen[0], WirePacket)
        # The edge content store holds the wire form and can answer again.
        cached = edge.cs.find(Interest(name=Name("/svc/item")))
        assert isinstance(cached, WirePacket)
        assert cached.wire == data_wire

    def test_consumer_decodes_exactly_once_at_the_edge(self):
        env = Environment()
        forwarder = Forwarder(env, "fwd", cs_capacity=0)
        data_wire = Data(name=Name("/app/x"), content=b"v").encode()
        forwarder.attach_producer("/app", lambda interest: WirePacket(data_wire))
        consumer = Consumer(env, forwarder)
        before = WirePacket.wire_decodes
        completion = consumer.express_interest("/app/x")
        env.run(until=1.0)
        assert completion.triggered
        assert completion.value.content == b"v"
        # Exactly one decode: the consumer materialising its Data.
        assert WirePacket.wire_decodes == before + 1


class TestProducerViews:
    def test_producer_serves_and_nacks_via_views(self):
        env = Environment()
        forwarder = Forwarder(env, "fwd", cs_capacity=0)
        producer = Producer(env, forwarder, "/store")
        producer.publish("/store/hit", b"content")
        consumer = Consumer(env, forwarder)
        hit = consumer.express_interest("/store/hit")
        miss = consumer.express_interest("/store/miss")
        env.run(until=1.0)
        assert hit.triggered and hit.value.content == b"content"
        # The producer answered the miss with a wire-built NACK.
        assert miss.triggered and not miss.ok
