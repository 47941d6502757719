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

Run with::

    python examples/multicluster_failover.py
"""

import _path_setup  # noqa: F401

import sys
from collections import Counter

from repro.core import ComputeRequest, LIDCTestbed


def misdirected_polls(gateways):
    """Status Interests answered "not my job", over every cluster ever seen."""
    return sum(
        cluster.gateway.metrics.counter("status_unknown_job").value
        for cluster in gateways.values()
    )


def run_batch(testbed, client, count, label, gateways):
    """Run ``count`` jobs; returns whether the phase kept its status polls on target."""
    gateways.update(testbed.clusters)  # departed clusters keep their counters here
    wasted_before = misdirected_polls(gateways)

    def batch():
        outcomes = []
        for index in range(count):
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
    return wasted <= allowed


def main() -> None:
    testbed = LIDCTestbed.multi_cluster(3, seed=3, node_count=1, node_cpu=4, node_memory="8Gi")
    testbed.overlay.use_load_balancing()
    client = testbed.client(poll_interval_s=10.0)
    gateways = {}
    on_target = []

    print("Phase 1: three clusters in the overlay")
    on_target.append(run_batch(testbed, client, 6, "initial-overlay", gateways))

    print("\nPhase 2: cluster-a leaves gracefully (withdraws its prefixes)")
    testbed.overlay.remove_cluster("cluster-a")
    on_target.append(run_batch(testbed, client, 6, "after-graceful-leave", gateways))

    print("\nPhase 3: cluster-b fails abruptly (no withdrawal, links just drop)")
    testbed.overlay.fail_cluster("cluster-b")
    on_target.append(run_batch(testbed, client, 4, "after-abrupt-failure", gateways))

    print("\nPhase 4: a new cluster joins and announces /ndn/k8s/compute")
    testbed.add_cluster(name="cluster-new")
    testbed.overlay.use_load_balancing()
    on_target.append(run_batch(testbed, client, 6, "after-join", gateways))

    print("\nAt no point did the client change a single configuration value —")
    print("it kept expressing the same named requests into the network.")
    if not all(on_target):
        sys.exit("status polls were re-walked across non-owning clusters")


if __name__ == "__main__":
    main()
