"""Property-based tests for the rendezvous (HRW) key hash.

The contract (see :mod:`repro.ndn.shard`): rendezvous hashing is a pure,
sha256-derived function of the key bytes, shard count and weights; growing
the pool from N to N+1 shards only ever moves keys *onto the new shard*;
weighted shards receive a key share proportional to their weight; and the
byte-level dispatch key extraction agrees exactly with the Name-object
path.  How *names* are placed on shards is checked in
``test_shard_properties``.
"""

from hypothesis import given, settings, strategies as st

from repro.ndn.name import Name
from repro.ndn.packet import Interest, WirePacket
from repro.ndn.shard import (
    key_from_name_bytes,
    make_shard_picker,
    rendezvous_for_key,
    rendezvous_for_name,
    shard_key,
)
from repro.exceptions import NDNError

import pytest

components = st.binary(min_size=1, max_size=12)
names = st.lists(components, min_size=1, max_size=6).map(Name)
shard_counts = st.integers(min_value=1, max_value=9)
keys = st.binary(max_size=24)
weight_values = st.floats(min_value=0.25, max_value=8.0, allow_nan=False)


class TestRendezvousPartitioning:
    @given(key=keys, num_shards=shard_counts)
    def test_every_key_maps_to_exactly_one_valid_shard(self, key, num_shards):
        shard = rendezvous_for_key(key, num_shards)
        assert 0 <= shard < num_shards
        # Pure function: recomputing never disagrees.
        assert rendezvous_for_key(key, num_shards) == shard

    @given(key=keys, num_shards=st.integers(1, 8))
    def test_growing_the_pool_only_moves_keys_onto_the_new_shard(self, key, num_shards):
        """HRW stability: a new shard adds one contender, never reshuffles."""
        before = rendezvous_for_key(key, num_shards)
        after = rendezvous_for_key(key, num_shards + 1)
        assert after == before or after == num_shards

    @given(key=keys, start=st.integers(1, 4), grow=st.integers(1, 4))
    def test_remapping_is_stable_under_repeated_growth(self, key, start, grow):
        previous = rendezvous_for_key(key, start)
        for num_shards in range(start + 1, start + grow + 1):
            current = rendezvous_for_key(key, num_shards)
            assert current == previous or current == num_shards - 1
            previous = current

    @given(key=keys, num_shards=st.integers(1, 6),
           weights=st.lists(weight_values, min_size=1, max_size=6),
           new_weight=weight_values)
    def test_weighted_growth_is_stable_when_old_weights_are_kept(
        self, key, num_shards, weights, new_weight
    ):
        """Adding a shard with existing shards' weights untouched only ever
        claims keys for the newcomer."""
        weights = (weights * num_shards)[:num_shards]
        before = rendezvous_for_key(key, num_shards, weights)
        after = rendezvous_for_key(key, num_shards + 1, weights + [new_weight])
        assert after == before or after == num_shards

    @given(name=names, num_shards=shard_counts, key_depth=st.integers(1, 8))
    def test_name_placement_is_a_prefix_function(self, name, num_shards, key_depth):
        truncated = Name(tuple(name)[:key_depth])
        assert rendezvous_for_name(name, num_shards, key_depth) == rendezvous_for_name(
            truncated, num_shards, key_depth
        )

    def test_weight_validation(self):
        with pytest.raises(NDNError):
            rendezvous_for_key(b"k", 2, [1.0])  # wrong arity
        with pytest.raises(NDNError):
            rendezvous_for_key(b"k", 2, [1.0, 0.0])  # non-positive
        with pytest.raises(NDNError):
            make_shard_picker(2, weights=[1.0])  # validated up front
        with pytest.raises(NDNError):
            make_shard_picker(0)

    def test_mapping_is_stable_across_interpreter_runs(self):
        """Pinned values: sha256-derived, so these can only change if the
        HRW salt construction changes — which would reshuffle every
        deployed partitioning."""
        assert [rendezvous_for_key(b"tenant%d" % i, 4) for i in range(8)] == [
            2, 0, 2, 1, 0, 3, 2, 0,
        ]
        assert [
            rendezvous_for_key(b"tenant%d" % i, 4, [1.0, 1.0, 2.0, 4.0])
            for i in range(8)
        ] == [2, 0, 2, 3, 3, 3, 2, 2]
        assert {rendezvous_for_key(b"tenant%d" % i, 4) for i in range(64)} == {0, 1, 2, 3}


class TestWeightedShare:
    def test_weighted_shards_get_proportional_key_share(self):
        """Over 20k keys, each shard's share lands within 2 points of
        weight_i / sum(weights) (binomial stddev is ~0.35 points)."""
        weights = [1.0, 1.0, 2.0, 4.0]
        total_weight = sum(weights)
        count = 20_000
        split = [0] * len(weights)
        for i in range(count):
            split[rendezvous_for_key(b"key:%d" % i, len(weights), weights)] += 1
        for shard, weight in enumerate(weights):
            share = split[shard] / count
            expected = weight / total_weight
            assert abs(share - expected) < 0.02, (
                f"shard {shard}: share {share:.3f}, expected {expected:.3f} "
                f"(split {split})"
            )

    def test_equal_weights_balance_evenly(self):
        count = 20_000
        split = [0] * 4
        for i in range(count):
            split[rendezvous_for_key(b"key:%d" % i, 4, [3.0] * 4)] += 1
        for shard_count in split:
            assert abs(shard_count / count - 0.25) < 0.02


class TestDispatchKeyExtraction:
    @given(name=names, key_depth=st.integers(1, 8))
    def test_byte_level_key_equals_object_level_key(self, name, key_depth):
        view = WirePacket(Interest(name=name).encode())
        assert key_from_name_bytes(view.name_bytes, key_depth) == shard_key(
            name, key_depth
        )

    @given(name=names, num_shards=shard_counts)
    @settings(max_examples=50)
    def test_pickers_agree_with_module_functions(self, name, num_shards):
        key = shard_key(name, 1)
        weights = [float(shard + 1) for shard in range(num_shards)]
        assert make_shard_picker(num_shards)(key) == rendezvous_for_key(key, num_shards)
        assert make_shard_picker(num_shards, weights)(key) == rendezvous_for_key(
            key, num_shards, weights
        )

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
        nack_view = WirePacket(interest_view.decode().nack().encode())
        assert nack_view.name_bytes == interest_view.name_bytes
