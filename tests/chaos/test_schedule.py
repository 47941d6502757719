"""Determinism and shape of generated fault schedules.

The schedule is the chaos layer's reproducibility contract: identical
(seed, spec) pairs must yield byte-identical schedules, every disruptive
fault must carry its own recovery event inside the horizon, and the
canonical text form that ``schedule_hash`` reads keeps every bit of a time.
"""

import pytest

from repro.chaos import (
    ChaosSpec,
    FaultEvent,
    FaultKind,
    build_schedule,
    schedule_hash,
)
from repro.sim.rng import SeededRNG

CLUSTERS = ("cluster-a", "cluster-b", "cluster-c")
LINKS = (("cluster-a", "client-edge"), ("cluster-b", "client-edge"))


def full_spec(label="soak", **overrides) -> ChaosSpec:
    settings = dict(
        label=label,
        horizon_s=60.0,
        clusters=CLUSTERS,
        links=LINKS,
        shards=(("cluster-a", 2), ("cluster-b", 4)),
        producers=CLUSTERS,
        kills=3,
        flaps=4,
        partitions=2,
        shard_crashes=5,
        churns=3,
    )
    settings.update(overrides)
    return ChaosSpec(**settings)


PAIRS = {
    FaultKind.NODE_KILL: FaultKind.NODE_RESTART,
    FaultKind.LINK_DOWN: FaultKind.LINK_UP,
    FaultKind.PARTITION: FaultKind.HEAL,
}


class TestDeterminism:
    def test_same_seed_same_schedule_and_hash(self):
        schedule_a = build_schedule(full_spec(), SeededRNG(42))
        schedule_b = build_schedule(full_spec(), SeededRNG(42))
        assert schedule_a == schedule_b
        assert schedule_hash(schedule_a) == schedule_hash(schedule_b)

    def test_different_seed_different_schedule(self):
        schedule_a = build_schedule(full_spec(), SeededRNG(42))
        schedule_b = build_schedule(full_spec(), SeededRNG(43))
        assert schedule_hash(schedule_a) != schedule_hash(schedule_b)

    def test_hash_is_order_sensitive(self):
        schedule = build_schedule(full_spec(), SeededRNG(7))
        shuffled = list(reversed(schedule))
        assert schedule_hash(shuffled) != schedule_hash(schedule)


class TestScheduleShape:
    def test_event_count_matches_spec(self):
        spec = full_spec()
        schedule = build_schedule(spec, SeededRNG(1))
        # pairs count twice: 2*(3+4+2) + 5 + 3
        assert len(schedule) == 26

    def test_events_are_time_ordered_and_renumbered(self):
        schedule = build_schedule(full_spec(), SeededRNG(1))
        assert [event.seq for event in schedule] == list(range(len(schedule)))
        times = [event.t for event in schedule]
        assert times == sorted(times)

    def test_every_disruption_has_a_later_recovery(self):
        schedule = build_schedule(full_spec(), SeededRNG(3))
        for index, event in enumerate(schedule):
            recovery_kind = PAIRS.get(event.kind)
            if recovery_kind is None:
                continue
            partners = [
                later for later in schedule[index + 1:]
                if later.kind is recovery_kind and later.target == event.target
            ]
            assert partners, f"{event.kind.value} on {event.target} never recovers"
            assert partners[0].t >= event.t

    def test_recovery_clamped_inside_horizon(self):
        spec = full_spec(horizon_s=10.0, max_outage_s=500.0)
        schedule = build_schedule(spec, SeededRNG(5))
        assert all(event.t <= spec.horizon_s for event in schedule)

    def test_injections_respect_the_window(self):
        spec = full_spec(injection_window=0.5)
        schedule = build_schedule(spec, SeededRNG(9))
        disruptions = [
            event for event in schedule
            if event.kind not in (FaultKind.NODE_RESTART, FaultKind.LINK_UP, FaultKind.HEAL)
        ]
        assert disruptions
        window = spec.horizon_s * spec.injection_window
        assert all(event.t <= window for event in disruptions)

    def test_targets_come_from_the_declared_pools(self):
        schedule = build_schedule(full_spec(), SeededRNG(11))
        shard_counts = dict(full_spec().shards)
        for event in schedule:
            if event.kind in (FaultKind.NODE_KILL, FaultKind.NODE_RESTART,
                              FaultKind.PARTITION, FaultKind.HEAL):
                assert event.target in CLUSTERS
            elif event.kind in (FaultKind.LINK_DOWN, FaultKind.LINK_UP):
                a, b = event.target.split("|")
                assert (a, b) in LINKS
            elif event.kind is FaultKind.SHARD_CRASH:
                node, _, index = event.target.rpartition("/")
                assert node in shard_counts
                assert 0 <= int(index) < shard_counts[node]
            else:
                assert event.kind is FaultKind.PRODUCER_CHURN
                assert event.target in CLUSTERS


class TestSpecValidation:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            build_schedule(full_spec(horizon_s=0.0), SeededRNG(0))

    def test_rejects_bad_injection_window(self):
        with pytest.raises(ValueError, match="window"):
            build_schedule(full_spec(injection_window=1.5), SeededRNG(0))

    def test_rejects_inverted_outage_bounds(self):
        with pytest.raises(ValueError, match="outage"):
            build_schedule(
                full_spec(min_outage_s=5.0, max_outage_s=1.0), SeededRNG(0)
            )

    def test_rejects_faults_without_targets(self):
        with pytest.raises(ValueError, match="no eligible targets"):
            build_schedule(full_spec(clusters=(), kills=1), SeededRNG(0))
        with pytest.raises(ValueError, match="no eligible targets"):
            build_schedule(full_spec(links=(), flaps=1), SeededRNG(0))
        with pytest.raises(ValueError, match="no eligible targets"):
            build_schedule(full_spec(shards=(), shard_crashes=1), SeededRNG(0))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            build_schedule(full_spec(kills=-1), SeededRNG(0))

    def test_empty_spec_builds_empty_schedule(self):
        spec = ChaosSpec(label="quiet", horizon_s=10.0)
        assert build_schedule(spec, SeededRNG(0)) == []

    def test_describe_is_json_shaped(self):
        import json

        description = full_spec().describe()
        assert json.loads(json.dumps(description)) == description


class TestFaultEventForm:
    def test_line_carries_full_float_precision(self):
        event = FaultEvent(seq=0, t=0.1 + 0.2, kind=FaultKind.NODE_KILL,
                           target="cluster-a")
        assert float(event.line().split(" ")[1]) == event.t

    def test_line_tolerates_targets_with_spaces_absent(self):
        """Targets carry no spaces (a link is ``a|b``), so a line splits
        into exactly its four fields, the target last and whole."""
        event = FaultEvent(seq=3, t=1.5, kind=FaultKind.LINK_DOWN,
                           target="cluster-a|client-edge")
        assert event.line().split(" ") == [
            "3", "1.5", FaultKind.LINK_DOWN.value, "cluster-a|client-edge"]
