"""LIDC core: the paper's contribution.

Everything that is LIDC-specific lives here: the semantic naming scheme, the
declarative service plane, the gateway, per-cluster deployment, the
multi-cluster overlay, the session-based client library, result caching
and the centralized baseline.

Most users only need three names::

    from repro.core import LIDCTestbed, ComputeRequest

    testbed = LIDCTestbed.single_cluster(seed=1)
    outcome = testbed.submit_and_wait(
        ComputeRequest(app="BLAST", cpu=2, memory_gb=4,
                       dataset="SRR2931415", reference="HUMAN"))

Non-blocking sessions drive many jobs through one client, whose poll
interval and retry policy hold for every job it submits::

    client = testbed.client(poll_interval_s=10.0)
    handles = client.submit_many([request_a, request_b, request_c])
    testbed.run(until=client.wait_all(handles))

and a simulation process waits on one job with
``outcome = yield client.submit(request).done``.  A new application is one
declarative registration::

    testbed.register_service(ServiceDefinition(
        name="WORDCOUNT", runner=WordCountRunner(),
        schema=ServiceSchema(fields=(ParamField("sep", str, default=" "),)),
        validator=WordCountValidator()))
"""

from repro.core import naming
from repro.core.applications import (
    BlastApplication,
    CompressApplication,
    SleepApplication,
)
from repro.core.baseline import CentralizedController
from repro.core.caching import CachedResult, ResultCache
from repro.core.client import JobHandle, JobOutcome, LIDCClient, SubmissionResult
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.framework import LIDCTestbed, TestbedConfig
from repro.core.gateway import Gateway
from repro.core.jobs import JobTracker
from repro.core.overlay import ComputeOverlay
from repro.core.service import (
    BASE_SCHEMA,
    ParamField,
    ServiceDefinition,
    ServiceRegistry,
    ServiceSchema,
)
from repro.core.spec import ComputeRequest, JobRecord, JobState
from repro.core.validation import BlastValidator, CompressionValidator
from repro.core.workflow import GenomicsWorkflow, WorkflowReport

__all__ = [
    "naming",
    "ComputeRequest",
    "JobState",
    "JobRecord",
    "JobTracker",
    "Gateway",
    "LIDCCluster",
    "ComputeOverlay",
    "LIDCClient",
    "SubmissionResult",
    "JobOutcome",
    "JobHandle",
    "ServiceDefinition",
    "ServiceRegistry",
    "ServiceSchema",
    "ParamField",
    "BASE_SCHEMA",
    "LIDCTestbed",
    "TestbedConfig",
    "GenomicsWorkflow",
    "WorkflowReport",
    "BlastApplication",
    "CompressApplication",
    "SleepApplication",
    "BlastValidator",
    "CompressionValidator",
    "ResultCache",
    "CachedResult",
    "CentralizedController",
]
