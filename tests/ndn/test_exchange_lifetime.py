"""What one Interest/Data exchange costs the engine, and when it lets go.

Deterministic op counts and object retention — no wall clock anywhere:

* a seeded two-hop exchange stays under pinned ceilings for
  ``Environment.step`` calls and ``Process`` constructions;
* satisfied exchanges leave nothing behind *before* their Interest lifetime
  has run out: no live watchdog, no pending entry, no reference cycle for
  the collector to find;
* every way an exchange can end also ends its watchdog process;
* a retry budget of N costs exactly N + 1 transmissions and lifetimes.
"""

import gc

import pytest

from repro.exceptions import InterestNacked, InterestTimeout
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data
from repro.sim.engine import Environment, Process
from repro.sim.topology import Link
from repro.sim.trace import Tracer

LIFETIME_S = 4.0  # the default Interest lifetime


class CountingEnvironment(Environment):
    """Counts engine steps and keeps every process it starts."""

    def __init__(self):
        super().__init__()
        self.steps = 0
        self.spawned = []

    def step(self):
        self.steps += 1
        super().step()

    def process(self, generator, name=""):
        proc = super().process(generator, name=name)
        self.spawned.append(proc)
        return proc

    def settle(self):
        """Process everything due at the current instant."""
        self.run(until=self.now)


def watchdog(env):
    """The one watchdog process the environment has started."""
    (proc,) = [proc for proc in env.spawned if proc.name.startswith("watchdog")]
    return proc


def answer(interest):
    return Data(name=interest.name, content=b"x").sign()


def two_hop(env, latency_s=0.0005, tracer=None):
    """consumer -> A ==link==> B -> producer, every name under /svc answered."""
    fa, fb = Forwarder(env, "A", tracer=tracer), Forwarder(env, "B", tracer=tracer)
    face_ab, _ = connect(env, fa, fb, link=Link("A", "B", latency_s=latency_s), label="A-B")
    fa.register_prefix("/svc", face_ab)
    fb.attach_producer("/svc", answer)
    return Consumer(env, fa), fa, fb


class TestExchangeBudget:
    #: Set from this tree: per exchange one link Timeout each way, the
    #: completion, the watchdog's start, wake, AnyOf and end, and the spent
    #: lifetime Timeout.  A Process per packet per hop costs 11 and 3.
    MAX_STEPS_PER_EXCHANGE = 8
    MAX_PROCESSES_PER_EXCHANGE = 1

    def test_two_hop_exchange_stays_under_the_pinned_ceilings(self):
        env = CountingEnvironment()
        consumer, _, _ = two_hop(env)
        exchanges = 50
        for index in range(exchanges):
            env.run(until=consumer.express_interest(f"/svc/item/{index}"))
        env.run()  # the spent lifetime Timeouts count too
        assert consumer.data_received == exchanges
        assert env.steps <= self.MAX_STEPS_PER_EXCHANGE * exchanges
        assert len(env.spawned) <= self.MAX_PROCESSES_PER_EXCHANGE * exchanges
        assert env.unhandled_failures == []

    def test_trace_records_per_exchange_are_pinned(self):
        """in/out at both hops, both directions: the record count is part of
        the benchmark's digest, so speeding the tracer up may not move it."""
        env = Environment()
        tracer = Tracer(clock=lambda: env.now)
        consumer, _, _ = two_hop(env, tracer=tracer)
        setup_records = len(tracer)
        for index in range(10):
            env.run(until=consumer.express_interest(f"/svc/item/{index}"))
        env.run()
        assert len(tracer) - setup_records == 8 * 10
        last = tracer.events[-8:]
        assert [(ev.category, ev.event) for ev in last] == [
            ("interest", "in"), ("interest", "out"), ("interest", "in"), ("interest", "out"),
            ("data", "in"), ("data", "out"), ("data", "in"), ("data", "out"),
        ]
        assert {ev.attrs["name"] for ev in last} == {"/svc/item/9"}


class TestRetention:
    def test_satisfied_exchanges_hold_nothing_before_their_lifetime_ends(self):
        env = CountingEnvironment()
        consumer, fa, fb = two_hop(env)
        gc.collect()
        gc.disable()  # whatever cycle the run makes must still be there to count
        try:
            for index in range(1000):
                env.run(until=consumer.express_interest(f"/svc/item/{index}"))
            env.settle()
            assert env.now < LIFETIME_S
            assert not any(proc.is_alive for proc in env.spawned)
            env.spawned.clear()
            assert sum(isinstance(obj, Process) for obj in gc.get_objects()) == 0
            assert consumer.pending_count() == 0
            assert len(fa.pit) == len(fb.pit) == 0
            assert gc.collect() == 0
            # The heap still holds the 1000 spent lifetime Timeouts; running
            # them out must not turn anything into cyclic garbage either.
            env.run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWatchdogEndsWithItsExchange:
    """Each way an exchange can end."""

    def test_satisfied_synchronously_before_the_first_cycle(self):
        env = CountingEnvironment()
        forwarder = Forwarder(env, "local")
        forwarder.attach_producer("/svc", answer)
        consumer = Consumer(env, forwarder)
        completion = consumer.express_interest("/svc/now")
        assert completion.triggered  # answered inside _send, zero-delay faces
        env.settle()
        assert env.now == 0.0
        assert not watchdog(env).is_alive
        assert consumer.pending_count() == 0

    def test_satisfied_across_a_link(self):
        env = CountingEnvironment()
        consumer, _, _ = two_hop(env, latency_s=0.01)
        env.run(until=consumer.express_interest("/svc/far"))
        env.settle()
        assert env.now == pytest.approx(0.02, abs=1e-3)
        assert not watchdog(env).is_alive

    def test_satisfied_during_a_backoff_sleep(self):
        """The Data of the first transmission arrives while the watchdog
        sleeps out its backoff: it wakes when the backoff ends, sees the
        verdict and leaves without retransmitting."""
        env = CountingEnvironment()
        forwarder = Forwarder(env, "slow")
        forwarder.attach_producer("/svc", lambda interest: None)  # never answers
        consumer = Consumer(env, forwarder)
        completion = consumer.express_interest(
            "/svc/late", lifetime=0.5,
            retry_policy=RetryPolicy(max_retries=2, initial_backoff_s=1.0),
        )
        late = Data(name=Name("/svc/late"), content=b"late").sign()
        env.timeout(0.8).callbacks.append(lambda _ev: consumer.face.peer.send(late))
        assert env.run(until=completion).content == b"late"
        assert env.now == pytest.approx(0.8)
        env.run(until=1.5)  # lifetime 0.5 + backoff 1.0
        assert not watchdog(env).is_alive
        assert consumer.interests_sent == 1
        assert consumer.pending_count() == 0
        env.run()
        assert consumer.interests_sent == 1 and consumer.timeouts == 0

    def test_final_nack_delivered_synchronously(self):
        env = CountingEnvironment()
        consumer = Consumer(env, Forwarder(env, "no-routes"))
        completion = consumer.express_interest("/nowhere/x")
        with pytest.raises(InterestNacked):
            env.run(until=completion)
        env.settle()
        assert env.now == 0.0
        assert not watchdog(env).is_alive
        assert consumer.pending_count() == 0

    def test_final_nack_across_a_link(self):
        env = CountingEnvironment()
        fa, fb = Forwarder(env, "A"), Forwarder(env, "B")  # B has no route
        face_ab, _ = connect(env, fa, fb, link=Link("A", "B", latency_s=0.01), label="A-B")
        fa.register_prefix("/svc", face_ab)
        consumer = Consumer(env, fa)
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/svc/refused"))
        env.settle()
        assert env.now < LIFETIME_S
        assert not watchdog(env).is_alive
        assert consumer.pending_count() == 0

    def test_timeout_verdict_from_inside_the_watchdog(self):
        env = CountingEnvironment()
        forwarder = Forwarder(env, "silent")
        forwarder.attach_producer("/svc", lambda interest: None)
        consumer = Consumer(env, forwarder)
        with pytest.raises(InterestTimeout):
            env.run(until=consumer.express_interest("/svc/x", lifetime=0.5))
        env.settle()
        assert env.now == pytest.approx(0.5)
        assert not watchdog(env).is_alive
        assert consumer.pending_count() == 0
        assert env.queue_size == 0

    def test_nacked_verdict_from_inside_the_watchdog(self):
        """A retriable Nack wakes the watchdog, whose backoff alone would
        blow the deadline: it fails the exchange itself (``_fail_pending``)
        and the unfired lifetime Timeout is left holding nothing."""
        env = CountingEnvironment()
        consumer = Consumer(env, Forwarder(env, "no-routes"))
        completion = consumer.express_interest(
            "/nowhere/x",
            retry_policy=RetryPolicy(max_retries=3, initial_backoff_s=1.0,
                                     deadline_s=0.5, retry_nacks=True),
        )
        with pytest.raises(InterestNacked):
            env.run(until=completion)
        env.settle()
        assert env.now == 0.0
        assert not watchdog(env).is_alive
        assert consumer.pending_count() == 0
        assert consumer.interests_sent == 1


class TestRetryBudget:
    """The contract of ``RetryPolicy.max_retries`` with every other field at
    its default: N retransmissions back to back, no Nack retried."""

    @pytest.mark.parametrize("max_retries", [0, 1, 2, 3])
    def test_black_holed_name_costs_n_plus_one_lifetimes(self, max_retries):
        env = Environment()
        forwarder = Forwarder(env, "black-hole")
        forwarder.attach_producer("/svc", lambda interest: None)
        consumer = Consumer(env, forwarder)
        completion = consumer.express_interest(
            "/svc/x", lifetime=0.5, retry_policy=RetryPolicy(max_retries=max_retries))
        with pytest.raises(InterestTimeout):
            env.run(until=completion)
        assert consumer.interests_sent == max_retries + 1
        assert env.now == pytest.approx((max_retries + 1) * 0.5)
        assert consumer.timeouts == 1

    @pytest.mark.parametrize("policy", [None, RetryPolicy()], ids=["none", "default"])
    def test_a_nack_fails_on_the_first_refusal(self, policy):
        env = Environment()
        consumer = Consumer(env, Forwarder(env, "no-routes"))
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/nowhere/x", retry_policy=policy))
        assert consumer.interests_sent == 1
        assert env.now == 0.0
