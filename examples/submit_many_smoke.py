#!/usr/bin/env python3
"""Smoke test: five concurrent job sessions through one client.

Exercised by CI under a wall-clock timeout so the session-based client API
cannot silently rot: submits five jobs with ``submit_many``, waits on all
handles, and checks the concurrent makespan is bounded by the slowest job
rather than the sum.

Run with::

    python examples/submit_many_smoke.py
"""

import _path_setup  # noqa: F401

from repro.core import ComputeRequest, LIDCTestbed

JOBS = 5
DURATION_S = 60.0


def main() -> None:
    testbed = LIDCTestbed.single_cluster(seed=3, node_count=2, node_cpu=8,
                                         node_memory="32Gi")
    client = testbed.client(poll_interval_s=10.0)
    requests = [
        ComputeRequest(app="SLEEP", cpu=1, memory_gb=1,
                       params={"duration": f"{DURATION_S:g}", "idx": str(index)})
        for index in range(JOBS)
    ]

    handles = client.submit_many(requests)
    print(f"{len(handles)} handles in flight: "
          f"{[handle.outcome.state.value for handle in handles]}")
    testbed.run(until=client.wait_all(handles))

    makespan = testbed.env.now
    for handle in handles:
        outcome = handle.outcome
        print(f"  job {outcome.submission.job_id}: {outcome.state.value} "
              f"runtime={outcome.runtime_s:.0f}s polls={outcome.status_polls}")
    print(f"Concurrent makespan: {makespan:,.1f} s "
          f"(sequential lower bound would be {JOBS * DURATION_S:,.0f} s)")

    assert all(handle.outcome.succeeded for handle in handles), "a job session failed"
    assert makespan < 2 * DURATION_S, "concurrency did not overlap the jobs"
    assert client.consumer.pending_count() == 0, "leaked pending Interests"
    print("OK")


if __name__ == "__main__":
    main()
