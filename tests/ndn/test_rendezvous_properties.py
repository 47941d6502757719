"""Property-based tests for the rendezvous (HRW) key hash.

The contract (see :mod:`repro.ndn.shard`): rendezvous hashing is a pure,
sha256-derived function of the key bytes and shard count; growing the
pool from N to N+1 shards only ever moves keys *onto the new shard*; and
keys spread evenly over the shards.  How *names* are placed on shards is
checked in ``test_shard_properties``.
"""

from hypothesis import given, settings, strategies as st

from repro.ndn.name import Name
from repro.ndn.packet import Interest, WirePacket, encode_name_value
from repro.ndn.shard import (
    _key_from_name_bytes,
    _make_shard_picker,
    _rendezvous_for_key,
)
from repro.exceptions import NDNError

import pytest

components = st.binary(min_size=1, max_size=12)
names = st.lists(components, min_size=1, max_size=6).map(Name)
shard_counts = st.integers(min_value=1, max_value=9)
keys = st.binary(max_size=24)


class TestRendezvousPartitioning:
    @given(key=keys, num_shards=shard_counts)
    def test_every_key_maps_to_exactly_one_valid_shard(self, key, num_shards):
        shard = _rendezvous_for_key(key, num_shards)
        assert 0 <= shard < num_shards
        # Pure function: recomputing never disagrees.
        assert _rendezvous_for_key(key, num_shards) == shard

    @given(key=keys, num_shards=st.integers(1, 8))
    def test_growing_the_pool_only_moves_keys_onto_the_new_shard(self, key, num_shards):
        """HRW stability: a new shard adds one contender, never reshuffles."""
        before = _rendezvous_for_key(key, num_shards)
        after = _rendezvous_for_key(key, num_shards + 1)
        assert after == before or after == num_shards

    @given(key=keys, start=st.integers(1, 4), grow=st.integers(1, 4))
    def test_remapping_is_stable_under_repeated_growth(self, key, start, grow):
        previous = _rendezvous_for_key(key, start)
        for num_shards in range(start + 1, start + grow + 1):
            current = _rendezvous_for_key(key, num_shards)
            assert current == previous or current == num_shards - 1
            previous = current

    def test_shard_count_validation(self):
        with pytest.raises(NDNError):
            _rendezvous_for_key(b"k", 0)
        with pytest.raises(NDNError):
            _make_shard_picker(0)  # validated up front

    def test_mapping_is_stable_across_interpreter_runs(self):
        """Pinned values: sha256-derived, so these can only change if the
        HRW salt construction changes — which would reshuffle every
        deployed partitioning."""
        assert [_rendezvous_for_key(b"tenant%d" % i, 4) for i in range(8)] == [
            2, 0, 2, 1, 0, 3, 2, 0,
        ]
        assert {_rendezvous_for_key(b"tenant%d" % i, 4) for i in range(64)} == {0, 1, 2, 3}

    def test_keys_balance_evenly(self):
        """Over 20k keys, each of four shards gets within 2 points of a
        quarter (binomial stddev is ~0.3 points)."""
        count = 20_000
        split = [0] * 4
        for i in range(count):
            split[_rendezvous_for_key(b"key:%d" % i, 4)] += 1
        for shard_count in split:
            assert abs(shard_count / count - 0.25) < 0.02


class TestDispatchKeyExtraction:
    @pytest.mark.parametrize(
        "name, key_depth, key",
        [
            ("/a/b/c", 1, b"a"),
            ("/a/b/c", 2, b"a/b"),
            ("/a/b", 5, b"a/b"),  # a name shorter than the depth keys whole
            ("/", 1, b""),
        ],
    )
    def test_key_is_the_first_components_joined(self, name, key_depth, key):
        assert _key_from_name_bytes(encode_name_value(Name(name)), key_depth) == key

    def test_key_depth_below_one_rejected(self):
        with pytest.raises(NDNError):
            _key_from_name_bytes(encode_name_value(Name("/a")), 0)

    @given(name=names, key_depth=st.integers(1, 8))
    def test_control_and_data_plane_keys_agree(self, name, key_depth):
        """Routes are placed from :func:`encode_name_value`, packets from
        their wire name bytes: both must give the same key."""
        view = WirePacket(Interest(name=name).encode())
        assert _key_from_name_bytes(
            encode_name_value(name), key_depth
        ) == _key_from_name_bytes(view.name_bytes, key_depth)

    @given(name=names, num_shards=shard_counts)
    @settings(max_examples=50)
    def test_pickers_agree_with_module_functions(self, name, num_shards):
        view = WirePacket(Interest(name=name).encode())
        key = _key_from_name_bytes(view.name_bytes, 1)
        assert _make_shard_picker(num_shards)(key) == _rendezvous_for_key(key, num_shards)

    @given(name=names)
    def test_name_bytes_memo_never_rescans(self, name):
        view = WirePacket(Interest(name=name).encode())
        first = view.name_bytes
        scans_before = WirePacket.span_scans
        for _ in range(5):
            assert view.name_bytes is first
        assert WirePacket.span_scans == scans_before

    @given(name=names)
    def test_nack_exposes_enclosed_interest_name_bytes(self, name):
        interest_view = WirePacket(Interest(name=name).encode())
        nack_view = WirePacket(interest_view.nack().wire)
        assert nack_view.name_bytes == interest_view.name_bytes
