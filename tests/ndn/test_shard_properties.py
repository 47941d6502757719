"""Property-based tests for the shard partitioning contract.

The contract (see :mod:`repro.ndn.shard`): every name maps to exactly one
shard, whether it is placed from the Name object (:func:`rendezvous_for_name`)
or from wire bytes the way the dispatcher does it; the mapping is a pure
function of the name's first ``key_depth`` components and the shard count
(stable across runs — never Python's randomised ``hash``); growing the
shard count only moves names onto the new shard; and an Interest and the
Data/Nack answering it always land on the same shard.  The frame codec
round-trips wire buffers and their span tables without ever decoding.
The key-level rendezvous hash is covered in ``test_rendezvous_properties``.
"""

from hypothesis import given, settings, strategies as st

from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, NackReason, WirePacket
from repro.ndn.shard import (
    decode_frame,
    encode_frame,
    key_from_name_bytes,
    make_shard_picker,
    rendezvous_for_name,
)

components = st.binary(min_size=1, max_size=12)
names = st.lists(components, min_size=1, max_size=6).map(Name)
shard_counts = st.integers(min_value=1, max_value=9)


def dispatched_shard(packet, num_shards, key_depth=1):
    """The shard a dispatcher sends ``packet`` to: its key is sliced from
    the wire name bytes and handed to the rendezvous picker."""
    view = WirePacket(packet.encode())
    return make_shard_picker(num_shards)(key_from_name_bytes(view.name_bytes, key_depth))


class TestPartitioning:
    @given(name=names, num_shards=shard_counts)
    def test_every_name_maps_to_exactly_one_valid_shard(self, name, num_shards):
        shard = rendezvous_for_name(name, num_shards)
        assert 0 <= shard < num_shards
        # Pure function: recomputing never disagrees, and neither does the
        # dispatcher's byte-level path.
        assert rendezvous_for_name(name, num_shards) == shard
        assert dispatched_shard(Interest(name=name), num_shards) == shard

    @given(first=components, rest_a=st.lists(components, max_size=4),
           rest_b=st.lists(components, max_size=4), num_shards=shard_counts)
    def test_key_depth_one_keys_on_the_first_component_only(
        self, first, rest_a, rest_b, num_shards
    ):
        name_a = Name([first, *rest_a])
        name_b = Name([first, *rest_b])
        assert rendezvous_for_name(name_a, num_shards) == rendezvous_for_name(
            name_b, num_shards
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
        before = rendezvous_for_name(name, num_shards, key_depth)
        after = rendezvous_for_name(name, num_shards + 1, key_depth)
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
        assert rendezvous_for_name("/alpha/x", 4) == rendezvous_for_name("/alpha/y", 4)
        pinned = [rendezvous_for_name(f"/tenant{i}/job", 4) for i in range(8)]
        assert pinned == [2, 0, 2, 1, 0, 3, 2, 0]
        assert pinned == [
            dispatched_shard(Interest(name=Name(f"/tenant{i}/job")), 4) for i in range(8)
        ]
        # All four shards are reachable over a modest tenant population.
        assert {rendezvous_for_name(f"/tenant{i}", 4) for i in range(64)} == {0, 1, 2, 3}

    @given(name=names, num_shards=shard_counts)
    def test_interest_and_data_for_the_same_name_share_a_shard(self, name, num_shards):
        interest = Interest(name=name)
        data = Data(name=name, content=b"payload").sign()
        nack = interest.nack(NackReason.NO_ROUTE)
        interest_view = WirePacket(interest.encode())
        data_view = WirePacket(data.encode())
        nack_view = WirePacket(nack.encode())
        shards = {
            rendezvous_for_name(interest_view.name, num_shards),
            rendezvous_for_name(data_view.name, num_shards),
            rendezvous_for_name(nack_view.name, num_shards),
        }
        assert len(shards) == 1

    @given(prefix=names, suffix=st.lists(components, min_size=1, max_size=3),
           num_shards=shard_counts)
    def test_prefix_interest_meets_its_extending_data(self, prefix, suffix, num_shards):
        """With the default key depth a can_be_prefix Interest and any Data
        extending its name share the first component, hence the shard."""
        data_name = prefix.append(*suffix)
        assert rendezvous_for_name(prefix, num_shards) == rendezvous_for_name(
            data_name, num_shards
        )


class TestFrameCodec:
    @given(name=names, tag=st.integers(0, 2**32 - 1), payload=st.binary(max_size=64))
    def test_data_frame_round_trip_preserves_wire_and_layout(self, name, tag, payload):
        data = Data(name=name, content=payload).sign()
        view = WirePacket(data.encode())
        _ = view.name  # force the span scan so the frame carries the layout
        before = WirePacket.wire_decodes
        frame = encode_frame(view, tag)
        got_tag, restored, consumed = decode_frame(frame, 0)
        assert consumed == len(frame)
        assert got_tag == tag
        assert restored.wire == view.wire
        # The span table crossed the boundary: reading the name re-walks
        # nothing and decodes nothing.
        assert restored._spans is not None
        assert restored.name == name
        assert not restored.is_decoded
        assert WirePacket.wire_decodes == before

    @given(name=names)
    def test_unscanned_packets_cross_without_a_layout(self, name):
        view = WirePacket(Interest(name=name).encode())
        frame = encode_frame(view)
        _tag, restored, _ = decode_frame(frame, 0)
        assert restored._spans is None
        assert restored.name == name  # parsed lazily on the far side

    @settings(max_examples=25)
    @given(name=names)
    def test_hop_patched_clone_frames_correctly(self, name):
        """The hop-limit patch hands a rebased span table to its clone; the
        frame codec must re-base it again without corruption."""
        view = WirePacket(Interest(name=name, hop_limit=7).encode())
        forwarded = view.with_decremented_hop_limit()
        _tag, restored, _ = decode_frame(encode_frame(forwarded), 0)
        assert restored.hop_limit == 6
        assert restored.name == name
