"""Self-healing request path: face removal and retry policies.

Covers the robustness layer added around the forwarder: PIT rescue/reject on
face removal, control-plane ``abort_pending`` and the consumer's
``RetryPolicy`` (backoff, deadline budgets, Nack-aware retransmission).
"""

import pytest

from repro.exceptions import InterestNacked, InterestTimeout
from repro.ndn.client import Consumer, RetryPolicy
from repro.ndn.face import connect
from repro.ndn.forwarder import Forwarder
from repro.ndn.packet import Data, NackReason
from repro.sim.rng import SeededRNG
from repro.sim.topology import Link


class TestFaceRemovalPitCleanup:
    def test_removal_nacks_pending_with_no_alternative(self, env):
        """A pending Interest whose only upstream vanishes is Nacked, not timed out."""
        edge, upstream = Forwarder(env, "edge"), Forwarder(env, "up")
        face_eu, _ = connect(env, edge, upstream, link=Link("e", "u", latency_s=0.001))
        edge.register_prefix("/svc", face_eu)
        upstream.attach_producer("/svc", lambda i: None)  # holds, never answers
        consumer = Consumer(env, edge)
        completion = consumer.express_interest("/svc/x", lifetime=30.0)
        env.run(until=0.1)
        assert len(edge.pit) == 1
        edge.remove_face(face_eu.face_id)
        with pytest.raises(InterestNacked) as excinfo:
            env.run(until=completion)
        assert "NoRoute" in str(excinfo.value)
        assert env.now < 1.0  # long before the 30s lifetime
        assert len(edge.pit) == 0

    def test_removal_reroutes_pending_over_alternative(self, env):
        """With a second route in the FIB the pending Interest is re-forwarded."""
        edge = Forwarder(env, "edge")
        slow, backup = Forwarder(env, "slow"), Forwarder(env, "backup")
        face_es, _ = connect(env, edge, slow, link=Link("e", "s", latency_s=0.001))
        face_eb, _ = connect(env, edge, backup, link=Link("e", "b", latency_s=0.001))
        edge.register_prefix("/svc", face_es, cost=1)   # preferred, never answers
        edge.register_prefix("/svc", face_eb, cost=10)  # survivor
        slow.attach_producer("/svc", lambda i: None)
        backup.attach_producer(
            "/svc", lambda i: Data(name=i.name, content=b"rescued")
        )
        consumer = Consumer(env, edge)
        completion = consumer.express_interest("/svc/x", lifetime=30.0)
        env.run(until=0.1)
        edge.remove_face(face_es.face_id)
        data = env.run(until=completion)
        assert data.content == b"rescued"
        assert env.now < 1.0

    def test_removal_without_pending_is_quiet(self, env):
        edge, upstream = Forwarder(env, "edge"), Forwarder(env, "up")
        face_eu, _ = connect(env, edge, upstream, link=Link("e", "u", latency_s=0.001))
        edge.register_prefix("/svc", face_eu)
        edge.remove_face(face_eu.face_id)
        assert edge.fib.lookup("/svc/x") is None
        assert len(edge.pit) == 0

    def test_abort_pending_nacks_matching_entries(self, env):
        forwarder = Forwarder(env, "node")
        forwarder.attach_producer("/a", lambda i: None)
        forwarder.attach_producer("/b", lambda i: None)
        consumer = Consumer(env, forwarder)
        ev_a = consumer.express_interest("/a/x", lifetime=30.0)
        ev_b = consumer.express_interest("/b/x", lifetime=30.0)
        env.run(until=0.05)
        aborted = forwarder.abort_pending(lambda entry: entry.name[0].value == b"a")
        assert aborted == 1
        with pytest.raises(InterestNacked):
            env.run(until=ev_a)
        assert not ev_b.triggered  # the /b entry is untouched
        assert len(forwarder.pit) == 1


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(initial_backoff_s=1.0, multiplier=2.0, max_backoff_s=5.0)
        assert policy.backoff_s(1) == 1.0
        assert policy.backoff_s(2) == 2.0
        assert policy.backoff_s(3) == 4.0
        assert policy.backoff_s(4) == 5.0  # capped
        assert policy.backoff_s(10) == 5.0

    def test_zero_initial_backoff_means_immediate(self):
        policy = RetryPolicy()
        assert policy.backoff_s(1) == 0.0
        assert policy.backoff_s(5) == 0.0

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(initial_backoff_s=1.0, jitter=0.5)
        draws_a = [policy.backoff_s(1, SeededRNG(7)) for _ in range(1)]
        draws_b = [policy.backoff_s(1, SeededRNG(7)) for _ in range(1)]
        assert draws_a == draws_b
        jittered = policy.backoff_s(1, SeededRNG(7))
        assert 1.0 <= jittered <= 1.5

    def test_nack_retry_gate(self):
        default = RetryPolicy()
        assert not default.should_retry_nack(NackReason.NO_ROUTE)
        healing = RetryPolicy(retry_nacks=True)
        assert healing.should_retry_nack(NackReason.NO_ROUTE)
        assert healing.should_retry_nack(NackReason.CONGESTION)
        assert not healing.should_retry_nack(NackReason.DUPLICATE)


class TestConsumerSelfHealing:
    def test_backoff_delays_retransmission(self, env):
        forwarder = Forwarder(env, "flaky")
        calls = {"count": 0}

        def handler(interest):
            calls["count"] += 1
            if calls["count"] < 2:
                return None
            return Data(name=interest.name, content=b"ok")

        forwarder.attach_producer("/svc", handler)
        consumer = Consumer(env, forwarder)
        policy = RetryPolicy(max_retries=3, initial_backoff_s=0.25)
        data = env.run(until=consumer.express_interest(
            "/svc/x", lifetime=0.5, retry_policy=policy))
        assert data.content == b"ok"
        # First lifetime (0.5s) plus one 0.25s backoff before the retry.
        assert env.now >= 0.75
        assert calls["count"] == 2

    def test_deadline_budget_bounds_total_retrying(self, env):
        forwarder = Forwarder(env, "silent")
        forwarder.attach_producer("/svc", lambda i: None)
        consumer = Consumer(env, forwarder)
        policy = RetryPolicy(max_retries=100, deadline_s=1.0)
        with pytest.raises(InterestTimeout):
            env.run(until=consumer.express_interest(
                "/svc/x", lifetime=0.4, retry_policy=policy))
        # Two full lifetimes fit the budget; the third attempt would
        # start past the deadline, so the session fails at ~1.2s, not
        # after 100 retries.
        assert 1.0 <= env.now <= 1.3
        assert consumer.pending_count() == 0

    def test_nack_retry_recovers_from_transient_rejection(self, env):
        forwarder = Forwarder(env, "transient")
        calls = {"count": 0}

        def handler(interest):
            calls["count"] += 1
            if calls["count"] < 2:
                return interest.nack(NackReason.CONGESTION)
            return Data(name=interest.name, content=b"recovered")

        forwarder.attach_producer("/svc", handler)
        consumer = Consumer(env, forwarder)
        policy = RetryPolicy(max_retries=3, retry_nacks=True)
        data = env.run(until=consumer.express_interest(
            "/svc/x", lifetime=5.0, retry_policy=policy))
        assert data.content == b"recovered"
        assert calls["count"] == 2
        assert env.now < 5.0  # retried on the Nack, not the lifetime

    def test_without_policy_nack_fails_immediately(self, env):
        forwarder = Forwarder(env, "reject")
        forwarder.attach_producer(
            "/svc", lambda i: i.nack(NackReason.CONGESTION))
        consumer = Consumer(env, forwarder)
        with pytest.raises(InterestNacked):
            env.run(until=consumer.express_interest("/svc/x", lifetime=5.0))
        assert env.now < 1.0

    def test_nack_retries_exhaust_to_typed_error(self, env):
        forwarder = Forwarder(env, "alwaysnack")
        forwarder.attach_producer("/svc", lambda i: i.nack(NackReason.NO_ROUTE))
        consumer = Consumer(env, forwarder)
        policy = RetryPolicy(max_retries=2, retry_nacks=True)
        with pytest.raises(InterestNacked) as excinfo:
            env.run(until=consumer.express_interest(
                "/svc/x", lifetime=5.0, retry_policy=policy))
        assert "NoRoute" in str(excinfo.value)
        assert consumer.pending_count() == 0
