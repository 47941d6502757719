"""Property-based tests for the shard partitioning contract.

The contract (see :mod:`repro.ndn.shard`): every name maps to exactly one
shard, placed from wire bytes the way the dispatcher does it; the mapping is a pure
function of the name's first ``key_depth`` components and the shard count
(stable across runs — never Python's randomised ``hash``); growing the
shard count only moves names onto the new shard; and an Interest and the
Data/Nack answering it always land on the same shard.  A packet crosses a
``ShardFace`` as a bytes-only view of the sender's own buffer and parse.
The key-level rendezvous hash is covered in ``test_rendezvous_properties``.
"""

from hypothesis import given, settings, strategies as st

from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, NackReason, WirePacket
from repro.ndn.shard import ShardFace, _key_from_name_bytes, _make_shard_picker
from repro.sim.engine import Environment

components = st.binary(min_size=1, max_size=12)
names = st.lists(components, min_size=1, max_size=6).map(Name)
shard_counts = st.integers(min_value=1, max_value=9)


def dispatched_shard(packet, num_shards, key_depth=1):
    """The shard a dispatcher sends ``packet`` to: its key is sliced from
    the wire name bytes and handed to the rendezvous picker."""
    view = packet if isinstance(packet, WirePacket) else WirePacket(packet.encode())
    return _make_shard_picker(num_shards)(_key_from_name_bytes(view.name_bytes, key_depth))


class TestPartitioning:
    @given(name=names, num_shards=shard_counts)
    def test_every_name_maps_to_exactly_one_valid_shard(self, name, num_shards):
        shard = dispatched_shard(Interest(name=name), num_shards)
        assert 0 <= shard < num_shards
        # Pure function: recomputing never disagrees.
        assert dispatched_shard(Interest(name=name), num_shards) == shard

    @given(first=components, rest_a=st.lists(components, max_size=4),
           rest_b=st.lists(components, max_size=4), num_shards=shard_counts)
    def test_key_depth_one_keys_on_the_first_component_only(
        self, first, rest_a, rest_b, num_shards
    ):
        name_a = Name([first, *rest_a])
        name_b = Name([first, *rest_b])
        assert dispatched_shard(Interest(name=name_a), num_shards) == dispatched_shard(
            Interest(name=name_b), num_shards
        )

    @given(name=names, num_shards=shard_counts, key_depth=st.integers(1, 8))
    def test_deeper_keys_are_prefix_functions(self, name, num_shards, key_depth):
        """The shard a dispatcher picks for a name depends only on its first
        key_depth components."""
        truncated = Name(tuple(name)[:key_depth])
        assert dispatched_shard(
            Interest(name=name), num_shards, key_depth
        ) == dispatched_shard(Interest(name=truncated), num_shards, key_depth)

    @given(name=names, num_shards=st.integers(1, 8), key_depth=st.integers(1, 3))
    def test_growing_the_pool_only_moves_keys_onto_the_new_shard(
        self, name, num_shards, key_depth
    ):
        before = dispatched_shard(Interest(name=name), num_shards, key_depth)
        after = dispatched_shard(Interest(name=name), num_shards + 1, key_depth)
        assert after == before or after == num_shards

    @given(name=names, start=st.integers(1, 4), grow=st.integers(1, 4))
    def test_remapping_is_stable_under_repeated_growth(self, name, start, grow):
        """A name that survives one growth step survives all later ones too:
        once it moves to a shard, only a *newer* shard can claim it."""
        previous = dispatched_shard(Interest(name=name), start)
        for num_shards in range(start + 1, start + grow + 1):
            current = dispatched_shard(Interest(name=name), num_shards)
            assert current == previous or current == num_shards - 1
            previous = current

    def test_mapping_is_stable_across_interpreter_runs(self):
        """Pinned values: the hash is sha256-derived, so these can only
        change if the rendezvous salt construction changes — which would
        reshuffle every deployed partitioning."""
        def shard_of(uri):
            return dispatched_shard(Interest(name=Name(uri)), 4)

        assert shard_of("/alpha/x") == shard_of("/alpha/y")
        pinned = [shard_of(f"/tenant{i}/job") for i in range(8)]
        assert pinned == [2, 0, 2, 1, 0, 3, 2, 0]
        # All four shards are reachable over a modest tenant population.
        assert {shard_of(f"/tenant{i}") for i in range(64)} == {0, 1, 2, 3}

    @given(name=names, num_shards=shard_counts)
    def test_interest_and_data_for_the_same_name_share_a_shard(self, name, num_shards):
        interest = Interest(name=name)
        data = Data(name=name, content=b"payload")
        nack = WirePacket(interest.encode()).nack(NackReason.NO_ROUTE)
        shards = {
            dispatched_shard(packet, num_shards) for packet in (interest, data, nack)
        }
        assert len(shards) == 1

    @given(prefix=names, suffix=st.lists(components, min_size=1, max_size=3),
           num_shards=shard_counts)
    def test_prefix_interest_meets_its_extending_data(self, prefix, suffix, num_shards):
        """With the default key depth a can_be_prefix Interest and any Data
        extending its name share the first component, hence the shard."""
        data_name = prefix.append(*suffix)
        assert dispatched_shard(Interest(name=prefix), num_shards) == dispatched_shard(
            Interest(name=data_name), num_shards
        )


class _Sink:
    def __init__(self):
        self.received = []

    def add_face(self, face):
        return 0

    def receive_packet(self, packet, face):
        self.received.append(packet)


def cross(packet):
    """Send ``packet`` over one dispatcher -> shard ``ShardFace`` pair and
    return what the shard side received."""
    env = Environment()
    sink = _Sink()
    sender, receiver = ShardFace(env, _Sink(), "dispatcher"), ShardFace(env, sink, "shard")
    sender.set_peer(receiver)
    receiver.set_peer(sender)
    sender.send(packet)
    (received,) = sink.received
    return received


interests = st.builds(
    Interest,
    name=names,
    can_be_prefix=st.booleans(),
    must_be_fresh=st.booleans(),
    lifetime=st.integers(1, 60_000).map(lambda ms: ms / 1000),  # the wire keeps ms
    hop_limit=st.integers(1, 255),
    application_parameters=st.binary(max_size=16),
)


class TestShardFaceCrossing:
    @given(name=names, payload=st.binary(max_size=64), freshness=st.floats(0.0, 60.0))
    def test_far_side_shares_the_buffer_layout_and_name_memos(self, name, payload, freshness):
        view = WirePacket(Data(name=name, content=payload, freshness_period=freshness).encode())
        _ = view.name, view.name_bytes  # parse once on the sending side
        decodes, scans = WirePacket.wire_decodes, WirePacket.span_scans
        crossed = cross(view)
        assert crossed is not view
        assert crossed._buf is view._buf
        assert (crossed._start, crossed._end) == (view._start, view._end)
        assert crossed._spans is view._spans
        assert crossed._name is view._name
        assert crossed._name_tlv is view._name_tlv
        assert crossed.freshness_period == view.freshness_period
        assert not crossed.is_decoded
        assert (WirePacket.wire_decodes, WirePacket.span_scans) == (decodes, scans)

    @given(name=names, payload=st.binary(max_size=64))
    def test_a_decoded_sender_hands_over_bytes_and_name_only(self, name, payload):
        data = Data(name=name, content=payload)
        sent = WirePacket.of(data)
        decodes = WirePacket.wire_decodes
        crossed = cross(sent)
        assert sent.is_decoded and not crossed.is_decoded
        assert crossed._buf is data.encode()
        assert crossed._name is data.name
        assert crossed.decode().content == payload  # decoding the far side
        assert sent.decode() is data  # ...leaves the sender's object alone
        assert WirePacket.wire_decodes == decodes + 1

    @given(interest=interests)
    def test_unscanned_packets_cross_without_a_layout(self, interest):
        view = WirePacket(interest.encode())
        crossed = cross(view)
        assert crossed._buf is view._buf
        assert crossed._spans is None
        assert crossed.name == interest.name  # parsed lazily on the far side

    @settings(max_examples=25)
    @given(interest=interests)
    def test_hop_patched_clone_reads_every_field(self, interest):
        forwarded = WirePacket(interest.encode()).with_decremented_hop_limit()
        crossed = cross(forwarded)
        assert crossed._buf is forwarded._buf
        assert crossed.hop_limit == interest.hop_limit - 1
        assert crossed.name == interest.name
        assert crossed.nonce == interest.nonce
        assert crossed.lifetime == interest.lifetime
        assert crossed.can_be_prefix == interest.can_be_prefix
        assert crossed.must_be_fresh == interest.must_be_fresh
        assert crossed.application_parameters == interest.application_parameters
        assert not crossed.is_decoded

    @settings(max_examples=25)
    @given(interest=interests, reason=st.sampled_from(
        [NackReason.NO_ROUTE, NackReason.CONGESTION, NackReason.DUPLICATE]))
    def test_a_nacks_enclosed_interest_crosses_as_a_sub_view(self, interest, reason):
        nack = WirePacket(WirePacket(interest.encode()).nack(reason).wire)
        enclosed = nack.interest
        crossed = cross(enclosed)
        assert crossed._buf is nack._buf
        assert (crossed._start, crossed._end) == (enclosed._start, enclosed._end)
        assert crossed._start > 0
        assert crossed.wire == interest.encode()
        assert crossed.name == interest.name
        assert crossed.nonce == interest.nonce
        assert crossed.hop_limit == interest.hop_limit
        assert crossed.lifetime == interest.lifetime
        assert crossed.can_be_prefix == interest.can_be_prefix
        assert crossed.with_decremented_hop_limit().hop_limit == interest.hop_limit - 1
        assert cross(nack).reason == reason
        assert not crossed.is_decoded
