"""LIDC reproduction package.

This package reproduces the system described in

    "LIDC: A Location Independent Multi-Cluster Computing Framework for
    Data Intensive Science", SC-W 2024.

The package is organised as a set of substrates plus the LIDC core:

* :mod:`repro.sim` — discrete-event simulation kernel used by everything.
* :mod:`repro.ndn` — Named Data Networking substrate (names, packets, CS/PIT/
  FIB, forwarder, routing).
* :mod:`repro.cluster` — a Kubernetes-equivalent orchestrator (API server,
  nodes, pods, scheduler, jobs, services, DNS, storage).
* :mod:`repro.datalake` — named data lake publishing datasets over NDN.
* :mod:`repro.genomics` — a Magic-BLAST equivalent workload with a calibrated
  runtime model.
* :mod:`repro.core` — the LIDC contribution: semantic naming, gateway,
  multi-cluster overlay, client, caching, the centralized baseline.
* :mod:`repro.analysis` — the run table of the paper's experiments (one row
  per table, figure or ablation, with a paper level and the shrunk levels
  the tier-1 tests check) and the ``reprolint`` analyzer.

Quickstart
----------

``LIDCClient.submit`` opens a non-blocking job session and returns a
:class:`~repro.core.client.JobHandle` immediately; ``handle.done`` is a
simulation event carrying its :class:`~repro.core.client.JobOutcome`, the
session's one record, which ``handle.outcome`` holds from submission on:

>>> from repro.core import LIDCTestbed, ComputeRequest
>>> testbed = LIDCTestbed.single_cluster(seed=1)
>>> client = testbed.client()
>>> handle = client.submit(ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
...                                       dataset="SRR2931415", reference="HUMAN"))
>>> outcome = testbed.run(until=handle.done)
>>> outcome is handle.outcome
True
>>> outcome.state
<JobState.COMPLETED: 'Completed'>

Many jobs run concurrently through one client:

>>> handles = client.submit_many([request_a, request_b, request_c])
>>> testbed.run(until=client.wait_all(handles))

and a new application is a single declarative
:class:`~repro.core.service.ServiceDefinition` registration —
``testbed.register_service(...)`` — with no gateway edits.
"""

from repro.version import __version__, __paper__

__all__ = ["__version__", "__paper__"]
