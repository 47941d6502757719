#!/usr/bin/env python3
"""Multi-cluster placement, cluster churn and failover (paper Fig. 1, §VII).

Builds an overlay of three clusters behind one client edge router, then shows
the three behaviours the paper highlights:

* requests spread over clusters purely through name-based forwarding;
* a cluster leaving (gracefully or by failure) never requires client changes;
* a brand-new cluster starts receiving work as soon as it announces
  ``/ndn/k8s/compute``.

Each phase also reports how many status Interests reached a gateway that
does not own the job.  A job's first poll may ask every other cluster once
(nothing tells the network where the job landed); after that the access
router remembers the owner, so a phase that wastes more than
``clusters - 1`` asks per job means polls are being re-walked, and the
script exits non-zero.

The last phase downs the client edge's link to its nearest cluster in the
middle of a batch.  Fail-over is the forwarding plane's job: the edge never
picks a down link while a live route exists, so every job must still succeed,
the client must not see a single Nack, and placement must shift to the next
cluster — anything else also exits non-zero.

Run with::

    python examples/multicluster_failover.py
"""

import _path_setup  # noqa: F401

import sys
from collections import Counter

from repro.core import ComputeRequest, LIDCTestbed
from repro.core.framework import CLIENT_EDGE


def misdirected_polls(gateways):
    """Status Interests answered "not my job", over every cluster ever seen."""
    return sum(
        cluster.gateway.metrics.counter("status_unknown_job").value
        for cluster in gateways.values()
    )


def run_batch(testbed, client, count, label, gateways, midway=None):
    """Run ``count`` jobs, calling ``midway`` before the second half.

    Returns whether the phase kept its status polls on target, and the outcomes.
    """
    gateways.update(testbed.clusters)  # departed clusters keep their counters here
    wasted_before = misdirected_polls(gateways)

    def batch():
        outcomes = []
        for index in range(count):
            if midway is not None and index == count // 2:
                midway()
            outcome = yield from client.run_workflow(
                ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                               params={"duration": "60", "batch": label, "idx": str(index)}),
                poll_interval_s=10.0, fetch_result=False,
            )
            outcomes.append(outcome)
        return outcomes

    outcomes = testbed.run_process(batch())
    placement = Counter(o.submission.cluster for o in outcomes if o.succeeded)
    success = sum(1 for o in outcomes if o.succeeded)
    print(f"  {label:<28s} success {success}/{count}   placement: {dict(sorted(placement.items()))}")
    wasted = misdirected_polls(gateways) - wasted_before
    allowed = (len(testbed.clusters) - 1) * count
    polls = sum(o.status_polls for o in outcomes)
    verdict = "ok" if wasted <= allowed else "TOO MANY"
    print(f"  {'':<28s} status polls {polls}, reached a non-owner {wasted:g}"
          f" (allowed {allowed}: clusters - 1 per job)   {verdict}")
    return wasted <= allowed, outcomes


def run_link_down_batch(testbed, client, gateways):
    """Down the edge's nearest link mid-batch; returns what went wrong (if anything)."""
    nearest = testbed.add_cluster(name="cluster-near", latency_s=0.005).name
    testbed.overlay.use_nearest_cluster()
    nacks_before = client.consumer.nacks_received
    on_target, outcomes = run_batch(
        testbed, client, 6, "nearest-link-down-midway", gateways,
        midway=lambda: testbed.overlay.fail_link(nearest, CLIENT_EDGE),
    )
    testbed.overlay.heal_link(nearest, CLIENT_EDGE)
    nacks = client.consumer.nacks_received - nacks_before
    half = len(outcomes) // 2  # where run_batch called ``midway``
    before = {o.submission.cluster for o in outcomes[:half] if o.succeeded}
    after = {o.submission.cluster for o in outcomes[half:] if o.succeeded}
    shifted = before == {nearest} and len(after) == 1 and nearest not in after
    print(f"  {'':<28s} client-visible Nacks {nacks}, placement {sorted(before)} ->"
          f" {sorted(after)}   {'ok' if shifted and not nacks else 'NO FAIL-OVER'}")
    problems = []
    if not on_target:
        problems.append("status polls were re-walked")
    if not all(o.succeeded for o in outcomes):
        problems.append("a job failed while a live cluster was one hop away")
    if nacks:
        problems.append(f"the client saw {nacks} Nack(s): fail-over was left to its back-off")
    if not shifted:
        problems.append("placement did not shift from the nearest cluster to the next one")
    return problems


def main() -> None:
    testbed = LIDCTestbed.multi_cluster(3, seed=3, node_count=1, node_cpu=4, node_memory="8Gi")
    testbed.overlay.use_load_balancing()
    client = testbed.client(poll_interval_s=10.0)
    gateways = {}
    on_target = []

    print("Phase 1: three clusters in the overlay")
    on_target.append(run_batch(testbed, client, 6, "initial-overlay", gateways)[0])

    print("\nPhase 2: cluster-a leaves gracefully (withdraws its prefixes)")
    testbed.overlay.remove_cluster("cluster-a")
    on_target.append(run_batch(testbed, client, 6, "after-graceful-leave", gateways)[0])

    print("\nPhase 3: cluster-b fails abruptly (no withdrawal, links just drop)")
    testbed.overlay.fail_cluster("cluster-b")
    on_target.append(run_batch(testbed, client, 4, "after-abrupt-failure", gateways)[0])

    print("\nPhase 4: a new cluster joins and announces /ndn/k8s/compute")
    testbed.add_cluster(name="cluster-new")
    testbed.overlay.use_load_balancing()
    on_target.append(run_batch(testbed, client, 6, "after-join", gateways)[0])

    print("\nPhase 5: a nearer cluster joins, then its link to the edge goes down mid-batch")
    problems = run_link_down_batch(testbed, client, gateways)

    print("\nAt no point did the client change a single configuration value —")
    print("it kept expressing the same named requests into the network.")
    if not all(on_target):
        sys.exit("status polls were re-walked across non-owning clusters")
    if problems:
        sys.exit("link-down fail-over: " + "; ".join(problems))


if __name__ == "__main__":
    main()
