#!/usr/bin/env python3
"""Quickstart: non-blocking job sessions for location-independent compute.

This is the minimal LIDC workflow from the paper, driven through the
session-based client API:

1. build a testbed (one MicroK8s-style cluster plus a client edge router);
2. ``client.submit(...)`` expresses a semantically named compute Interest
   (``/ndn/k8s/compute/app=BLAST&cpu=2&mem=4&ref=HUMAN&srr=SRR2931415``) and
   returns a :class:`~repro.core.client.JobHandle` immediately — a future
   whose background session tracks the status name the ack hands back
   (``/ndn/k8s/status/cluster-a/1`` for job ``cluster-a-job-1``) with
   exponentially backed-off status Interests, each answered with just the
   job's state until the result is ready;
3. the gateway validates the request, spawns the Kubernetes Job, and
   publishes the result into the data lake;
4. ``testbed.run(until=handle.done)`` waits for the terminal outcome.

Run with::

    python examples/quickstart.py
"""

import _path_setup  # noqa: F401  (adds src/ to sys.path for source checkouts)

from repro.core import ComputeRequest, LIDCTestbed


def main() -> None:
    testbed = LIDCTestbed.single_cluster(seed=1)
    client = testbed.client(poll_interval_s=600.0)
    request = ComputeRequest(
        app="BLAST", cpu=2, memory_gb=4, dataset="SRR2931415", reference="HUMAN"
    )
    print(f"Submitting: {request.describe()}")
    print(f"Compute name: {request.to_name()}")

    # The handle comes back immediately; nothing has been simulated yet.
    handle = client.submit(request)
    print(f"Handle state    : {handle.state.value} (session runs in the background)")

    outcome = testbed.run(until=handle.done)

    print(f"\nJob id          : {handle.job_id}")
    print(f"Executed on     : {handle.cluster} (chosen by the network, not the client)")
    print(f"Final state     : {handle.state.value}")
    print(f"Simulated runtime: {outcome.runtime_s:,.0f} s (paper Table I: 8h9m50s = 29,390 s)")
    print(f"Result name     : {outcome.result_name}")
    print(f"Result size     : {outcome.result_size_bytes / 1e6:,.0f} MB (paper: 941 MB)")
    print(f"Status polls    : {outcome.status_polls} (exponential backoff, "
          f"capped at {client.poll_interval_s:g} s)")


if __name__ == "__main__":
    main()
