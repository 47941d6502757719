"""Overlay failure surfaces: cluster loss, link faults, baseline outage.

The chaos layer injects through exactly these control points, so each one
is pinned down on its own here: ``fail_cluster`` resolves in-flight state
instead of stranding it, link faults drop silently and heal losslessly,
``isolate``/``rejoin`` cut and restore the same link set, the access
router's memory of a job's owner never outlives the owner's face, and the
centralized baseline fails hard (every submission rejected) where the
overlay degrades gracefully.
"""

import pytest

from repro.core import framework, naming
from repro.core.baseline import CentralizedController
from repro.core.framework import CLIENT_EDGE, WAN_LATENCY_S, LIDCTestbed
from repro.core.spec import ComputeRequest, JobState
from repro.exceptions import ControllerUnavailable, InterestNacked, OverlayError
from repro.ndn.client import Consumer


def request(dataset="SRR2931415"):
    return ComputeRequest(
        app="BLAST", cpu=2, memory_gb=4, dataset=dataset, reference="HUMAN"
    )


class TestFailCluster:
    def test_fail_returns_the_cluster_and_forgets_it(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=1, load_paper_datasets=False)
        cluster = testbed.overlay.fail_cluster("cluster-a")
        assert cluster.name == "cluster-a"
        assert "cluster-a" not in testbed.overlay.clusters
        assert all(
            "cluster-a" not in (link.a, link.b)
            for link in testbed.overlay.links()
        )

    def test_fail_unknown_cluster_raises(self):
        testbed = LIDCTestbed.multi_cluster(1, seed=1, load_paper_datasets=False)
        with pytest.raises(OverlayError):
            testbed.overlay.fail_cluster("nope")

    def test_failed_cluster_readds_and_serves_again(self):
        testbed = LIDCTestbed.multi_cluster(1, seed=1)
        cluster = testbed.overlay.fail_cluster("cluster-a")
        outcome = testbed.submit_and_wait(request())
        assert not outcome.succeeded  # nothing left to serve it
        testbed.overlay.add_cluster(
            cluster, connect_to=[(CLIENT_EDGE, WAN_LATENCY_S)]
        )
        outcome = testbed.submit_and_wait(request())
        assert outcome.succeeded

    def test_fail_resolves_pending_interests_instead_of_stranding(self):
        """The `_disconnect_all` path is a forwarder-level removal: a
        pending Interest whose only route died is Nacked (NoRoute) long
        before its lifetime, and the edge PIT comes out clean."""
        testbed = LIDCTestbed.multi_cluster(1, seed=1, load_paper_datasets=False)
        cluster = testbed.cluster("cluster-a")
        cluster.gateway_nfd.attach_producer("/hold", lambda i: None)
        cluster.routing.announce("/hold")
        edge = testbed.overlay.routers[CLIENT_EDGE]
        consumer = Consumer(testbed.env, edge)
        completion = consumer.express_interest("/hold/x", lifetime=30.0)
        testbed.run(until=0.1)
        assert len(edge.pit) == 1
        testbed.overlay.fail_cluster("cluster-a")
        with pytest.raises(InterestNacked) as excinfo:
            testbed.run(until=completion)
        assert "NoRoute" in str(excinfo.value)
        assert testbed.env.now < 1.0  # typed failure, not a 30s timeout
        assert len(edge.pit) == 0


class TestLinkFaults:
    @pytest.fixture
    def testbed(self):
        return LIDCTestbed.multi_cluster(2, seed=2, load_paper_datasets=False)

    def test_set_link_state_toggles_both_directions(self, testbed):
        assert testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        testbed.overlay.fail_link("cluster-a", CLIENT_EDGE)
        assert not testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        # Node order must not matter for lookup.
        assert not testbed.overlay.link_up(CLIENT_EDGE, "cluster-a")
        testbed.overlay.heal_link(CLIENT_EDGE, "cluster-a")
        assert testbed.overlay.link_up("cluster-a", CLIENT_EDGE)

    def test_unknown_link_raises(self, testbed):
        with pytest.raises(OverlayError):
            testbed.overlay.set_link_state("cluster-a", "cluster-b", up=False)
        with pytest.raises(OverlayError):
            testbed.overlay.link_up("cluster-a", "ghost")

    def test_downed_link_drops_in_flight_replies_silently(self, testbed):
        """A link fault keeps routes installed but eats what's in flight:
        the reply to an Interest sent before the fault is dropped at the
        downed face and the consumer fails with a typed timeout."""
        from repro.ndn.packet import Data

        edge = testbed.overlay.routers[CLIENT_EDGE]
        cluster = testbed.cluster("cluster-a")
        def answer_later(interest):
            data = Data(name=interest.name, content=b"late")
            testbed.env.timeout(0.4).callbacks.append(lambda _: app_face.send(data))

        app_face = cluster.gateway_nfd.attach_producer("/slow-a", answer_later)
        cluster.routing.announce("/slow-a")
        consumer = Consumer(testbed.env, edge)
        completion = consumer.express_interest("/slow-a/x", lifetime=0.5)
        testbed.run(until=0.1)  # Interest is at the producer, reply pending
        testbed.overlay.fail_link("cluster-a", CLIENT_EDGE)
        # The route survives the fault — this is a link flap, not a leave.
        assert edge.fib.lookup("/slow-a/x") is not None
        drops_before = sum(
            face.stats.drops for face in cluster.gateway_nfd.faces().values()
        )
        testbed.run(until=1.0)
        drops_after = sum(
            face.stats.drops for face in cluster.gateway_nfd.faces().values()
        )
        assert drops_after > drops_before
        assert completion.triggered and not completion.ok
        # After healing, the same name is served again.
        testbed.overlay.heal_link("cluster-a", CLIENT_EDGE)
        data = testbed.run(until=consumer.express_interest("/slow-a/y", lifetime=2.0))
        assert data.content == b"late"

    def test_isolate_and_rejoin_restore_the_same_cut(self, testbed):
        cut = testbed.overlay.isolate("cluster-a")
        assert len(cut) == 1
        assert not testbed.overlay.link_up("cluster-a", CLIENT_EDGE)
        # Other clusters are untouched.
        assert testbed.overlay.link_up("cluster-b", CLIENT_EDGE)
        healed = testbed.overlay.rejoin("cluster-a")
        assert healed == cut
        assert testbed.overlay.link_up("cluster-a", CLIENT_EDGE)

    def test_isolate_unknown_node_raises(self, testbed):
        with pytest.raises(OverlayError):
            testbed.overlay.isolate("ghost")
        with pytest.raises(OverlayError):
            testbed.overlay.rejoin("ghost")


def slot_filler(idx):
    """A 2-CPU, 600 s job: exactly one fits a ``one_slot_clusters`` cluster."""
    return ComputeRequest(app="SLEEP", cpu=2, memory_gb=2,
                          params={"duration": "600", "idx": str(idx)})


def one_slot_clusters():
    """Three clusters at 10/20/30 ms, one 2-CPU slot each, and a client."""
    testbed = LIDCTestbed(framework.TestbedConfig(
        seed=6, node_count=1, node_cpu=4, node_memory="8Gi"))
    for latency in (0.01, 0.02, 0.03):
        testbed.add_cluster(latency_s=latency)
    return testbed, testbed.client(poll_interval_s=10.0)


class TestOwnerAffinityUnderFailure:
    """The edge remembers which cluster owns a job; faults must not strand that."""

    @pytest.fixture
    def placed(self):
        """All three slots busy; the last job sits on cluster-c and the edge
        has learned that (one discovery poll, one steered)."""
        testbed, client = one_slot_clusters()

        def fill():
            for index in range(3):
                submission = yield from client.submit_interest(slot_filler(index))
            return submission

        submission = testbed.run_process(fill())
        assert submission.cluster == "cluster-c"
        for _ in range(2):
            self.poll(testbed, client, submission.job_id)
        assert self.unknown(testbed) == 2
        return testbed, client, submission.job_id

    @staticmethod
    def poll(testbed, client, job_id):
        testbed.run(until=testbed.env.now + 2.0)  # past the 1 s status freshness
        return testbed.run_process(client.poll_status(naming.status_name(job_id)))

    @staticmethod
    def unknown(testbed):
        return sum(
            cluster.gateway.metrics.counter("status_unknown_job").value
            for cluster in testbed.clusters.values()
        )

    @staticmethod
    def answered(testbed, name):
        """Status polls the gateway of cluster ``name`` answered (not Nacked)."""
        metrics = testbed.cluster(name).gateway.metrics
        return (metrics.counter("status_interests").value
                - metrics.counter("status_unknown_job").value)

    @staticmethod
    def clean(testbed, client):
        edge = testbed.overlay.routers[CLIENT_EDGE]
        edge.pit.expire()
        return (len(edge.pit) == 0 and client.consumer.pending_count() == 0
                and client.in_flight == 0)

    def test_owner_failing_mid_job_nacks_the_next_poll(self):
        testbed, client = one_slot_clusters()
        handles = []
        for index in range(3):  # staggered by 0.5 s
            handles.append(client.submit(slot_filler(index)))
            testbed.run(until=testbed.env.now + 0.5)
        testbed.run(until=20.0)
        tracked = next(h for h in handles if h.outcome.submission.cluster == "cluster-c")
        assert tracked.outcome.status_polls >= 3 and not tracked.done.triggered
        testbed.overlay.fail_cluster("cluster-c")
        outcome = testbed.run(until=tracked.done)
        # The survivors do not own the job: a typed failure at the next
        # poll, long before the 600 s job would have ended — never a hang.
        assert outcome.state == JobState.FAILED
        assert "status tracking failed" in outcome.error and "NoRoute" in outcome.error
        assert testbed.env.now < 60.0
        others = [h for h in handles if h is not tracked]
        testbed.run(until=client.wait_all(others))
        assert all(h.outcome.succeeded for h in others)
        assert self.clean(testbed, client)

    def test_owner_link_down_is_an_immediate_no_route_and_heals(self, placed):
        testbed, client, job_id = placed
        testbed.overlay.fail_link("cluster-c", CLIENT_EDGE)
        started = testbed.env.now + 2.0
        with pytest.raises(InterestNacked) as excinfo:
            self.poll(testbed, client, job_id)
        assert "NoRoute" in str(excinfo.value)
        # Answered by the edge itself: no other cluster can own this job,
        # so none is asked and nothing waits out the outage.
        assert testbed.env.now == started
        assert self.unknown(testbed) == 2
        testbed.overlay.heal_link("cluster-c", CLIENT_EDGE)
        answered = self.answered(testbed, "cluster-c")
        # A status reply carries only news: the state, not who sent it.
        assert self.poll(testbed, client, job_id) == {"state": "Running"}
        assert self.answered(testbed, "cluster-c") == answered + 1
        assert self.unknown(testbed) == 2  # the memory survived: steered, no re-walk
        assert self.clean(testbed, client)

    def test_no_stale_face_id_is_selected_after_leave_and_join(self, placed):
        testbed, client, job_id = placed
        edge = testbed.overlay.routers[CLIENT_EDGE]
        strategy = edge.strategies.find(naming.status_name(job_id))
        # The edge remembers the owner per cluster, not per job.
        owner_key = naming.STATUS_PREFIX.append("cluster-c")
        assert list(strategy._owners) == [owner_key]
        stale = strategy._owners[owner_key]
        chosen = []
        plain_select = strategy.select

        def recording_select(*args, **kwargs):
            faces = plain_select(*args, **kwargs)
            chosen.extend(faces)
            return faces

        strategy.select = recording_select
        testbed.overlay.remove_cluster("cluster-c")
        newcomer = testbed.add_cluster(name="cluster-new", latency_s=0.03)
        assert stale not in edge.faces()
        with pytest.raises(InterestNacked):
            self.poll(testbed, client, job_id)  # its owner is gone for good
        assert owner_key not in strategy._owners
        # A job on the newcomer is discovered and steered like any other.
        submission = testbed.run_process(client.submit_interest(slot_filler("late")))
        assert submission.cluster == newcomer.name
        before = self.unknown(testbed)
        answered = self.answered(testbed, newcomer.name)
        for _ in range(3):
            assert self.poll(testbed, client, submission.job_id) == {"state": "Running"}
        assert self.answered(testbed, newcomer.name) == answered + 3
        assert self.unknown(testbed) == before + 2
        assert strategy._owners[naming.STATUS_PREFIX.append(newcomer.name)] in edge.faces()
        assert chosen and stale not in chosen
        assert set(chosen) <= set(edge.faces())
        assert self.clean(testbed, client)


class TestCentralizedBaselineFailure:
    @pytest.fixture
    def controller(self):
        testbed = LIDCTestbed.multi_cluster(2, seed=3)
        return CentralizedController(
            testbed.env, clusters=list(testbed.clusters.values())
        )

    def test_fail_rejects_every_submission(self, controller):
        controller.fail()
        with pytest.raises(ControllerUnavailable):
            controller.submit(request())
        assert controller.rejected_unavailable == 1

    def test_try_submit_records_unavailability(self, controller):
        controller.fail()
        submission = controller.try_submit(request())
        assert not submission.accepted
        assert "unavailable" in submission.error
        assert controller.rejected_unavailable == 1

