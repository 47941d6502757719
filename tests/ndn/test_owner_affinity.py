"""Owner affinity: a name one upstream owns is found once, not on every Interest.

``OwnerAffinityStrategy`` is best-route plus a bounded per-name memory of
the upstream that answered after a Nack retry.  Three layers are pinned
here, all on the simulated clock:

* the strategy alone — what it remembers, when it forgets, the LRU bound;
* one ``Forwarder`` in front of upstreams of which one owns each name —
  the upstream Interest count is ``position + N - 1`` for N polls where
  best-route pays ``N * position``;
* a Hypothesis differential against a best-route forwarder — the consumer
  cannot tell the two apart, and affinity never asks more upstreams than
  best-route unless a name's owner *moved* (one extra ask at the old owner).
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exceptions import InterestNacked, NDNError
from repro.ndn.client import Consumer
from repro.ndn.face import connect
from repro.ndn.fib import FibEntry
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, Interest, NackReason
from repro.ndn.strategy import (
    BestRouteStrategy,
    OwnerAffinityStrategy,
    Strategy,
    StrategyChoiceTable,
)
from repro.sim.engine import Environment
from repro.sim.topology import Link

OWNED = "/owned"


def make_fib_entry(*hops):
    entry = FibEntry(prefix=Name(OWNED))
    for face_id, cost in hops:
        entry.add_nexthop(face_id, cost)
    return entry


def select(strategy, entry, name="/owned/job-1", in_face_id=99, tried=()):
    return strategy.select(Interest(name=Name(name)), entry, in_face_id, tried)


class TestStrategyMemory:
    def test_nothing_is_remembered_without_a_reported_answer(self):
        strategy = OwnerAffinityStrategy()
        entry = make_fib_entry((1, 10), (2, 20), (3, 30))
        for _ in range(3):
            assert select(strategy, entry) == [1]  # plain best-route, every time
        assert len(strategy._owners) == 0

    def test_base_strategies_ignore_the_answer_hook(self):
        entry = make_fib_entry((1, 10), (2, 20))
        for strategy in (Strategy(), BestRouteStrategy()):
            strategy.note_answer(Name("/owned/job-1"), 2)
        assert select(BestRouteStrategy(), entry) == [1]

    def test_remembered_face_is_returned_first(self):
        strategy = OwnerAffinityStrategy()
        entry = make_fib_entry((1, 10), (2, 20), (3, 30))
        strategy.note_answer(Name("/owned/job-1"), 3)
        assert select(strategy, entry) == [3]
        # Per name: another job under the same prefix is still best-route.
        assert select(strategy, entry, name="/owned/job-2") == [1]

    def test_forgotten_when_it_already_nacked_this_exchange(self):
        strategy = OwnerAffinityStrategy()
        entry = make_fib_entry((1, 10), (2, 20), (3, 30))
        strategy.note_answer(Name("/owned/job-1"), 3)
        assert select(strategy, entry, tried=(3,)) == [1]
        assert select(strategy, entry) == [1]  # gone for good, not just skipped

    def test_forgotten_when_it_is_the_in_face(self):
        strategy = OwnerAffinityStrategy()
        entry = make_fib_entry((1, 10), (2, 20), (3, 30))
        strategy.note_answer(Name("/owned/job-1"), 3)
        assert select(strategy, entry, in_face_id=3) == [1]
        assert select(strategy, entry) == [1]

    def test_forgotten_when_the_fib_entry_no_longer_lists_it(self):
        strategy = OwnerAffinityStrategy()
        entry = make_fib_entry((1, 10), (2, 20), (3, 30))
        strategy.note_answer(Name("/owned/job-1"), 3)
        entry.remove_nexthop(3)
        assert select(strategy, entry) == [1]
        entry.add_nexthop(4, 30)  # a newcomer never inherits the old id
        assert select(strategy, entry) == [1]
        assert len(strategy._owners) == 0

    def test_lru_bound_holds_and_a_steered_hit_refreshes_recency(self):
        strategy = OwnerAffinityStrategy()
        entry = make_fib_entry((1, 10), (2, 20))
        capacity = OwnerAffinityStrategy.CAPACITY
        for index in range(capacity):
            strategy.note_answer(Name(f"/owned/job-{index}"), 2)
        assert len(strategy._owners) == capacity
        # job-0 is the oldest; steering it makes job-1 the next victim.
        assert select(strategy, entry, name="/owned/job-0") == [2]
        strategy.note_answer(Name("/owned/job-new"), 2)
        assert len(strategy._owners) == capacity
        assert select(strategy, entry, name="/owned/job-0") == [2]
        assert select(strategy, entry, name="/owned/job-1") == [1]  # evicted
        assert select(strategy, entry, name="/owned/job-new") == [2]

    def test_chosen_for_a_namespace_it_remembers_the_owner_per_next_component(self):
        strategy = OwnerAffinityStrategy()
        strategy.chosen_for(Name(OWNED))
        entry = make_fib_entry((1, 10), (2, 20), (3, 30))
        strategy.note_answer(Name("/owned/site-c/1"), 3)
        # Every name under /owned/site-c has the one owner; other sites do not.
        assert select(strategy, entry, name="/owned/site-c/2") == [3]
        assert select(strategy, entry, name="/owned/site-c") == [3]
        assert select(strategy, entry, name="/owned/site-b/1") == [1]
        assert list(strategy._owners) == [Name("/owned/site-c")]
        # Forgotten for the whole site at once.
        assert select(strategy, entry, name="/owned/site-c/9", tried=(3,)) == [1]
        assert select(strategy, entry, name="/owned/site-c/1") == [1]

    def test_one_instance_keys_one_namespace_depth(self):
        strategy = OwnerAffinityStrategy()
        table = StrategyChoiceTable()
        table.set_strategy("/a/b", strategy)
        table.set_strategy("/c/d", strategy)  # same depth: same keys
        with pytest.raises(NDNError):
            table.set_strategy("/a", strategy)

    def test_takes_no_constructor_argument(self):
        with pytest.raises(TypeError):
            OwnerAffinityStrategy(16)


# --------------------------------------------------------------- one forwarder


class Rig:
    """An edge forwarder in front of upstreams ordered by cost.

    ``owners`` maps a name to the index of the upstream that answers it;
    every other upstream (and every upstream, for a name nobody owns) Nacks
    ``NoRoute`` — the gateway's answer to a status poll for a job it does
    not own.  ``asked[i]`` counts the Interests upstream ``i`` received.
    """

    def __init__(self, upstreams=3, affinity=True, prefixes=(OWNED,)):
        self.env = Environment()
        self.edge = Forwarder(self.env, "edge", cs_capacity=0)
        self.owners: dict[Name, int] = {}
        self.asked = [0] * upstreams
        self.faces = []
        for index in range(upstreams):
            upstream = Forwarder(self.env, f"up{index}", cs_capacity=0)
            face, _ = connect(self.env, self.edge, upstream,
                              link=Link("edge", f"up{index}", latency_s=0.001))
            for prefix in prefixes:
                self.edge.register_prefix(prefix, face, cost=10 * (index + 1))
                upstream.attach_producer(prefix, self._handler(index))
            self.faces.append(face)
        if affinity:
            self.edge.set_strategy(OWNED, OwnerAffinityStrategy())
        self.consumer = Consumer(self.env, self.edge)

    def _handler(self, index):
        def handle(interest):
            self.asked[index] += 1
            if self.owners.get(interest.name) == index:
                return Data(name=interest.name, content=f"up{index}".encode()).sign()
            return interest.nack(NackReason.NO_ROUTE)
        return handle

    def own(self, name, index):
        self.owners[Name(name)] = index

    def poll(self, name):
        """One exchange run to its verdict: ``("data", b"upN")`` or ``("nack", reason)``."""
        try:
            data = self.env.run(until=self.consumer.express_interest(name, lifetime=2.0))
        except InterestNacked as exc:
            return ("nack", exc.reason)
        return ("data", data.content)

    def clean(self):
        return len(self.edge.pit) == 0 and self.consumer.pending_count() == 0


class TestForwarderSteering:
    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_n_polls_cost_position_plus_n_minus_one(self, position):
        polls = 6
        costs = {}
        for affinity in (False, True):
            rig = Rig(affinity=affinity)
            rig.own("/owned/job-1", position - 1)
            for _ in range(polls):
                assert rig.poll("/owned/job-1") == ("data", f"up{position - 1}".encode())
            assert rig.clean()
            costs[affinity] = sum(rig.asked)
        assert costs[False] == polls * position
        assert costs[True] == position + polls - 1

    def test_an_exchange_that_never_retried_touches_no_table(self):
        rig = Rig()
        rig.own("/owned/job-1", 0)  # the nearest upstream owns it
        for _ in range(3):
            rig.poll("/owned/job-1")
        assert len(rig.edge.strategies.find("/owned/job-1")._owners) == 0
        assert rig.asked == [3, 0, 0]

    def test_a_second_name_owned_elsewhere_is_learned_independently(self):
        rig = Rig()
        rig.own("/owned/job-1", 2)
        rig.own("/owned/job-2", 1)
        for _ in range(2):
            assert rig.poll("/owned/job-1") == ("data", b"up2")
            assert rig.poll("/owned/job-2") == ("data", b"up1")
        # Discovery: 3 + 2 asks; one steered poll each after that.
        assert rig.asked == [2, 1 + 1 + 1, 1 + 1]
        assert sum(rig.asked) == (3 + 1) + (2 + 1)

    def test_names_under_one_owner_share_one_discovery_walk(self):
        rig = Rig()
        for index in range(4):
            rig.own(f"/owned/site-c/{index}", 2)
        for index in range(4):
            assert rig.poll(f"/owned/site-c/{index}") == ("data", b"up2")
        assert rig.asked == [1, 1, 4]  # one walk, then every name straight to the owner
        assert rig.clean()

    def test_names_outside_the_configured_prefix_are_untouched(self):
        rig = Rig(prefixes=(OWNED, "/other"))
        rig.own("/other/x", 2)
        for _ in range(4):
            assert rig.poll("/other/x") == ("data", b"up2")
        assert sum(rig.asked) == 4 * 3  # best-route walks every time
        assert len(rig.edge.strategies.find("/owned/x")._owners) == 0

    def test_an_owner_that_lost_the_name_is_forgotten_inside_the_nack_pipeline(self):
        rig = Rig()
        rig.own("/owned/job-1", 2)
        rig.poll("/owned/job-1")
        rig.poll("/owned/job-1")
        assert rig.asked == [1, 1, 2]
        del rig.owners[Name("/owned/job-1")]  # e.g. a gateway restart
        # Steered to up2 first, which Nacks; the walk goes on over the two
        # untried hops and the consumer gets the Nack — no hang, no leak.
        assert rig.poll("/owned/job-1") == ("nack", "NoRoute")
        assert rig.asked == [2, 2, 3]
        assert rig.clean()
        assert len(rig.edge.strategies.find("/owned/job-1")._owners) == 0

    def test_an_owner_that_moved_nearer_costs_one_stale_ask_once(self):
        """The only case where affinity asks more than best-route would."""
        rig = Rig()
        rig.own("/owned/job-1", 2)
        rig.poll("/owned/job-1")
        rig.own("/owned/job-1", 0)
        assert rig.poll("/owned/job-1") == ("data", b"up0")
        assert rig.asked == [2, 1, 2]  # up2 (stale, Nacks), then up0; best-route: up0 only
        assert rig.poll("/owned/job-1") == ("data", b"up0")
        assert rig.asked == [3, 1, 2]  # relearned: straight to up0

    def test_a_removed_upstream_is_never_selected_again(self):
        rig = Rig()
        rig.own("/owned/job-1", 2)
        rig.poll("/owned/job-1")
        rig.edge.remove_face(rig.faces[2].face_id)
        assert rig.poll("/owned/job-1") == ("nack", "NoRoute")
        assert rig.asked == [2, 2, 1]  # up2 was not asked again
        assert rig.clean()


# ---------------------------------------------------------------- differential

UPSTREAMS = 4
NAMES = [f"/owned/job-{index}" for index in range(5)]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("poll"), st.integers(0, len(NAMES) - 1)),
        # ``None`` as the owner: every upstream Nacks the name.
        st.tuples(st.just("own"), st.integers(0, len(NAMES) - 1),
                  st.one_of(st.none(), st.integers(0, UPSTREAMS - 1))),
        st.tuples(st.just("remove"), st.integers(0, UPSTREAMS - 1)),
    ),
    min_size=1, max_size=40,
)


class TestDifferentialAgainstBestRoute:
    @given(operations)
    @example([("own", 0, 3), ("poll", 0), ("own", 0, 0), ("poll", 0), ("poll", 0)])
    @example([("own", 1, 2), ("poll", 1), ("remove", 2), ("poll", 1), ("own", 1, 1), ("poll", 1)])
    @settings(max_examples=60, deadline=None)
    def test_same_verdicts_and_never_more_upstream_interests(self, ops):
        best, affinity = Rig(UPSTREAMS, affinity=False), Rig(UPSTREAMS, affinity=True)
        removed: set[int] = set()
        # Names whose owner moved since their last poll: the one case where
        # affinity may ask one upstream more (the stale owner, which a
        # best-route walk that stops earlier would not have reached).
        moved: set[int] = set()
        for op in ops:
            if op[0] == "own":
                _, name_index, owner = op
                name = Name(NAMES[name_index])
                if best.owners.get(name) != owner:
                    moved.add(name_index)
                for rig in (best, affinity):
                    if owner is None:
                        rig.owners.pop(name, None)
                    else:
                        rig.owners[name] = owner
            elif op[0] == "remove":
                if op[1] not in removed:
                    removed.add(op[1])
                    for rig in (best, affinity):
                        rig.edge.remove_face(rig.faces[op[1]].face_id)
            else:
                name_index = op[1]
                before = sum(best.asked), sum(affinity.asked), list(affinity.asked)
                verdict = best.poll(NAMES[name_index])
                assert affinity.poll(NAMES[name_index]) == verdict
                best_cost = sum(best.asked) - before[0]
                affinity_cost = sum(affinity.asked) - before[1]
                allowance = 1 if name_index in moved else 0
                assert affinity_cost <= best_cost + allowance
                moved.discard(name_index)
                for index in removed:  # a stale face id is never selected
                    assert affinity.asked[index] == before[2][index]
                assert best.clean() and affinity.clean()

    @given(st.lists(st.integers(0, len(NAMES) - 1), min_size=1, max_size=40),
           st.lists(st.one_of(st.none(), st.integers(0, UPSTREAMS - 1)),
                    min_size=len(NAMES), max_size=len(NAMES)))
    @settings(max_examples=40, deadline=None)
    def test_with_fixed_owners_every_single_poll_is_no_dearer(self, polls, owners):
        best, affinity = Rig(UPSTREAMS, affinity=False), Rig(UPSTREAMS, affinity=True)
        for name, owner in zip(NAMES, owners):
            if owner is not None:
                best.own(name, owner)
                affinity.own(name, owner)
        seen: set[int] = set()
        for name_index in polls:
            before = sum(best.asked), sum(affinity.asked)
            assert affinity.poll(NAMES[name_index]) == best.poll(NAMES[name_index])
            best_cost = sum(best.asked) - before[0]
            affinity_cost = sum(affinity.asked) - before[1]
            owner = owners[name_index]
            if owner is not None and name_index in seen:
                assert affinity_cost == 1  # steered straight to the owner
            else:
                assert affinity_cost == best_cost  # discovery, or nobody owns it
            seen.add(name_index)
