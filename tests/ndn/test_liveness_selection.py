"""Liveness is an input to next-hop selection, not a filter after it.

A next hop whose face is down (or gone) is never the strategy's answer
while a live, untried, non-downstream hop exists, so fail-over happens in
the forwarding plane in zero time instead of in the client's back-off.
Three layers, all on the simulated clock:

* a Hypothesis oracle over random FIB entries and random in-face / tried /
  down sets for every built-in strategy;
* one ``Forwarder`` before three producers 10, 20 and 40 ms away with some
  of the links down;
* owner affinity: a *down* owner is an immediate ``NoRoute`` with the
  memory kept (a *tried* owner is forgotten), and a down non-owner never
  disturbs a steered poll.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import InterestNacked
from repro.ndn.client import Consumer
from repro.ndn.face import connect
from repro.ndn.fib import FibEntry
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, NackReason
from repro.ndn.strategy import (
    BestRouteStrategy,
    LoadBalanceStrategy,
    OwnerAffinityStrategy,
)
from repro.sim.engine import Environment
from repro.sim.topology import Link

PREFIX = "/served"
NAME = Name("/served/item")

#: Fresh instances of every built-in strategy, keyed for failure messages.
BUILT_IN = {
    "best-route": BestRouteStrategy,
    "round-robin": LoadBalanceStrategy,
    "owner-affinity": OwnerAffinityStrategy,
}
#: The ones whose answer is the single cheapest candidate.
CHEAPEST_FIRST = ("best-route", "owner-affinity")


@st.composite
def selections(draw):
    """A FIB entry plus an in-face, a tried set and a down set over its hops."""
    face_ids = draw(st.lists(st.integers(1, 12), min_size=1, max_size=6, unique=True))
    # Three cost levels over up to six hops: ties are the common case.
    costs = draw(st.lists(st.sampled_from([10.0, 20.0, 40.0]),
                          min_size=len(face_ids), max_size=len(face_ids)))
    entry = FibEntry(prefix=Name(PREFIX))
    for face_id, cost in zip(face_ids, costs):
        entry.add_nexthop(face_id, cost)
    in_face = draw(st.sampled_from(face_ids + [99]))
    tried = tuple(draw(st.lists(st.sampled_from(face_ids), unique=True)))
    down = tuple(draw(st.lists(st.sampled_from(face_ids), unique=True)))
    return entry, in_face, tried, down


def candidates(entry, in_face, tried, down=()):
    return [hop for hop in entry.nexthops
            if hop.face_id != in_face and hop.face_id not in tried
            and hop.face_id not in down]


class TestSelectionOracle:
    @given(selections())
    @settings(max_examples=300, deadline=None)
    def test_no_strategy_ever_answers_a_down_tried_or_in_face_hop(self, case):
        entry, in_face, tried, down = case
        allowed = {hop.face_id for hop in candidates(entry, in_face, tried, down)}
        for label, make in BUILT_IN.items():
            chosen = make().select(Interest(name=NAME), entry, in_face, tried, down)
            assert set(chosen) <= allowed, label
            # ... and a live candidate is never passed over for nothing.
            assert bool(chosen) == bool(allowed), label

    @given(selections())
    @settings(max_examples=300, deadline=None)
    def test_cheapest_live_candidate_wins(self, case):
        entry, in_face, tried, down = case
        live = candidates(entry, in_face, tried, down)
        expected = ([min(live, key=lambda hop: (hop.cost, hop.face_id)).face_id]
                    if live else [])
        for label in CHEAPEST_FIRST:
            chosen = BUILT_IN[label]().select(
                Interest(name=NAME), entry, in_face, tried, down)
            assert chosen == expected, label

    @given(selections())
    @settings(max_examples=300, deadline=None)
    def test_with_no_face_down_the_answer_is_the_parents(self, case):
        """Pinned against the pre-liveness logic: ``_eligible`` + ``min``."""
        entry, in_face, tried, _down = case
        interest = Interest(name=NAME)
        for label, make in BUILT_IN.items():
            four_args = make().select(interest, entry, in_face, tried)
            assert make().select(interest, entry, in_face, tried, ()) == four_args, label
            eligible = make()._eligible(entry, in_face, tried)
            assert eligible == candidates(entry, in_face, tried), label
            if label in CHEAPEST_FIRST:
                best = min(eligible, key=lambda hop: (hop.cost, hop.face_id), default=None)
                assert four_args == ([best.face_id] if best else []), label

    @given(selections())
    @settings(max_examples=200, deadline=None)
    def test_a_remembered_owner_is_kept_when_down_and_forgotten_when_tried(self, case):
        entry, in_face, tried, down = case
        owner = entry.nexthops[0].face_id
        strategy = OwnerAffinityStrategy()
        strategy.note_answer(NAME, owner)
        chosen = strategy.select(Interest(name=NAME), entry, in_face, tried, down)
        if owner == in_face or owner in tried:
            assert NAME not in strategy._owners  # it cannot be the answer any more
            live = candidates(entry, in_face, tried, down)
            assert chosen == ([min(live, key=lambda h: (h.cost, h.face_id)).face_id]
                              if live else [])
        else:
            assert strategy._owners[NAME] == owner
            # Nobody else owns the name: no hop at all beats a wrong hop.
            assert chosen == ([] if owner in down else [owner])


# --------------------------------------------------------------- one forwarder


class Rig:
    """An edge forwarder before three producers 10, 20 and 40 ms away.

    ``answers[i]`` decides what upstream ``i`` says to an Interest: ``True``
    serves Data (content ``upN``), ``False`` Nacks ``NoRoute``.
    ``asked[i]`` counts the Interests it received.
    """

    LATENCIES_S = (0.010, 0.020, 0.040)

    def __init__(self, strategy=None):
        self.env = Environment()
        self.edge = Forwarder(self.env, "edge", cs_capacity=0)
        self.answers = [True, True, True]
        self.asked = [0, 0, 0]
        self.links = []
        for index, latency in enumerate(self.LATENCIES_S):
            upstream = Forwarder(self.env, f"up{index}", cs_capacity=0)
            pair = connect(self.env, self.edge, upstream,
                           link=Link("edge", f"up{index}", latency_s=latency))
            self.edge.register_prefix(PREFIX, pair[0], cost=latency * 1000.0)
            upstream.attach_producer(PREFIX, self._handler(index))
            self.links.append(pair)
        if strategy is not None:
            self.edge.set_strategy(PREFIX, strategy)
        self.consumer = Consumer(self.env, self.edge)

    def _handler(self, index):
        def handle(interest):
            self.asked[index] += 1
            if self.answers[index]:
                return Data(name=interest.name, content=f"up{index}".encode())
            return interest.nack(NackReason.NO_ROUTE)
        return handle

    def set_link(self, index, up):
        for face in self.links[index]:
            face.up = up

    def fetch(self, name="/served/item"):
        """One exchange, no client retransmission: ``(verdict, payload, sim seconds)``."""
        started = self.env.now
        try:
            data = self.env.run(
                until=self.consumer.express_interest(name, lifetime=2.0))
        except InterestNacked as exc:
            return ("nack", exc.reason, self.env.now - started)
        return ("data", data.content, self.env.now - started)

    def clean(self):
        self.edge.pit.expire()
        return len(self.edge.pit) == 0 and self.consumer.pending_count() == 0


def round_trip_to(index, name="/served/item"):
    """Sim seconds a fault-free fetch answered by upstream ``index`` takes.

    Measured on a rig whose only route is that upstream; compared to the
    nanosecond, because a fetch that starts later on the clock subtracts
    two floats.
    """
    rig = Rig()
    for nearer in range(index):
        rig.edge.unregister_prefix(PREFIX, rig.links[nearer][0])
    verdict, payload, elapsed = rig.fetch(name)
    assert (verdict, payload) == ("data", f"up{index}".encode())
    return elapsed


class TestForwarderFailsOverInZeroTime:
    def test_nearest_link_down_costs_one_round_trip_to_the_second(self):
        """Fails at the parent: an immediate ``NoRoute`` with two live routes."""
        rig = Rig()
        rig.set_link(0, up=False)
        verdict, payload, elapsed = rig.fetch()
        assert (verdict, payload) == ("data", b"up1")
        assert elapsed == pytest.approx(round_trip_to(1), abs=1e-9)
        assert rig.asked == [0, 1, 0]
        assert rig.consumer.interests_sent == 1  # zero retransmissions
        assert rig.consumer.nacks_received == 0
        assert rig.links[0][0].stats.drops == 0  # nothing was even sent at the dead link
        assert rig.clean()

    def test_nearest_and_second_down_goes_to_the_third(self):
        rig = Rig()
        rig.set_link(0, up=False)
        rig.set_link(1, up=False)
        verdict, payload, elapsed = rig.fetch()
        assert (verdict, payload) == ("data", b"up2")
        assert elapsed == pytest.approx(round_trip_to(2), abs=1e-9)
        assert rig.asked == [0, 0, 1]
        assert rig.consumer.interests_sent == 1 and rig.consumer.nacks_received == 0

    def test_all_three_down_is_no_route_at_once(self):
        rig = Rig()
        for index in range(3):
            rig.set_link(index, up=False)
        assert rig.fetch() == ("nack", "NoRoute", 0.0)
        assert rig.asked == [0, 0, 0]
        assert rig.clean()

    def test_a_nack_from_the_nearest_retries_past_a_down_second(self):
        rig = Rig()
        rig.answers[0] = False
        rig.set_link(1, up=False)
        verdict, payload, elapsed = rig.fetch()
        assert (verdict, payload) == ("data", b"up2")  # not NoRoute
        assert 2 * 0.010 < elapsed - round_trip_to(2) < 2 * 0.010 + 1e-4
        assert rig.asked == [1, 0, 1]
        assert rig.edge.metrics.counter("nack_retries").value == 1
        assert rig.consumer.interests_sent == 1 and rig.consumer.nacks_received == 0

    def test_the_nearest_wins_again_the_moment_it_heals(self):
        rig = Rig()
        rig.set_link(0, up=False)
        assert rig.fetch("/served/a")[1] == b"up1"
        rig.set_link(0, up=True)
        assert rig.fetch("/served/b")[:2] == ("data", b"up0")
        assert rig.asked == [1, 1, 0]

    @pytest.mark.parametrize("label", ["round-robin"])
    def test_every_strategy_is_kept_off_a_down_link(self, label):
        rig = Rig(strategy=BUILT_IN[label]())
        rig.set_link(0, up=False)
        for index in range(6):
            assert rig.fetch(f"/served/{index}")[0] == "data"
        assert rig.asked[0] == 0 and sum(rig.asked) >= 6
        assert rig.links[0][0].stats.drops == 0
        assert rig.consumer.nacks_received == 0 and rig.clean()


class TestOwnerAffinityUnderLiveness:
    @pytest.fixture
    def steered(self):
        """``/served/job`` is owned by the farthest upstream and the edge knows."""
        rig = Rig(strategy=OwnerAffinityStrategy())
        rig.answers[0] = rig.answers[1] = False
        assert rig.fetch("/served/job")[1] == b"up2"  # the discovery walk
        assert rig.asked == [1, 1, 1]
        assert rig.fetch("/served/job")[1] == b"up2"  # steered
        assert rig.asked == [1, 1, 2]
        return rig

    def test_a_down_owner_is_no_route_in_zero_time_and_the_memory_survives(self, steered):
        rig = steered
        rig.set_link(2, up=False)
        assert rig.fetch("/served/job") == ("nack", "NoRoute", 0.0)
        assert rig.asked == [1, 1, 2]  # nobody else can own it: nobody is asked
        assert rig.edge.strategies.find("/served/job")._owners[Name("/served/job")] \
            == rig.links[2][0].face_id
        rig.set_link(2, up=True)
        verdict, payload, elapsed = rig.fetch("/served/job")
        assert (verdict, payload) == ("data", b"up2")
        assert rig.asked == [1, 1, 3]  # steered again, no re-walk
        assert elapsed == pytest.approx(round_trip_to(2, "/served/job"), abs=1e-9)
        assert rig.clean()

    def test_a_down_non_owner_never_disturbs_a_steered_poll(self, steered):
        rig = steered
        rig.set_link(0, up=False)
        rig.set_link(1, up=False)
        verdict, payload, elapsed = rig.fetch("/served/job")
        assert (verdict, payload) == ("data", b"up2")
        assert elapsed == pytest.approx(round_trip_to(2, "/served/job"), abs=1e-9)
        assert rig.asked == [1, 1, 3]
        # One ask, answered live: the forwarder never had to look for down hops.
        assert rig.links[0][0].stats.drops == rig.links[1][0].stats.drops == 0

    def test_the_discovery_walk_steps_over_a_down_hop(self):
        rig = Rig(strategy=OwnerAffinityStrategy())
        rig.answers[0] = rig.answers[1] = False
        rig.set_link(1, up=False)
        assert rig.fetch("/served/job")[:2] == ("data", b"up2")
        assert rig.asked == [1, 0, 1]
        assert rig.fetch("/served/job")[:2] == ("data", b"up2")
        assert rig.asked == [1, 0, 2]  # learned through the gap
