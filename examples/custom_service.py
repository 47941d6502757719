#!/usr/bin/env python3
"""Register a third application with one ``ServiceDefinition`` — no gateway edits.

The paper argues that LIDC's validations and application dispatch are "built
into the system in a modular manner" (§IV-B).  The reproduction makes that one
declarative object: a :class:`~repro.core.ServiceDefinition` bundles the
application's

* name (``app=WORDCOUNT`` in the compute name),
* typed parameter schema (``min_len`` must be a positive integer),
* admission validator (the dataset must exist in the lake),
* runner (how the Kubernetes pod computes), and
* cache policy (results may be served from the gateway result cache).

``testbed.register_service(definition)`` is the only integration step: no
edits to ``gateway.py``, ``validation.py`` or ``applications.py``.

Run with::

    python examples/custom_service.py
"""

import _path_setup  # noqa: F401

import json

from repro.cluster.pod import Container, PodSpec, ResourceRequirements, WorkloadResult
from repro.core import (
    ComputeRequest, LIDCTestbed, ParamField, ServiceDefinition, ServiceSchema,
)
from repro.core.validation import ValidationResult


class WordCountRunner:
    """Counts tokens of a materialised dataset inside the job's pod."""

    def build_pod_spec(self, request, datalake):
        min_len = int(request.params.get("min_len", "1"))

        def workload(pod) -> WorkloadResult:
            text = datalake.read_bytes(request.dataset or "").decode("utf-8", "replace")
            words = [token for token in text.split() if len(token) >= min_len]
            payload = json.dumps({"words": len(words), "min_len": min_len}).encode()
            return WorkloadResult(
                duration_s=1.0 + len(text) / 50e6,
                output={"result_size_bytes": len(payload), "result_payload": payload},
            )

        return PodSpec(containers=[Container(
            name="wordcount", image="lidc/wordcount:1",
            resources=ResourceRequirements.of(cpu=request.cpu,
                                              memory=f"{request.memory_gb:g}Gi"),
            workload=workload, startup_delay_s=0.5,
        )])


class WordCountValidator:
    def validate(self, request, datalake=None):
        if not request.dataset:
            return ValidationResult(False, "WORDCOUNT requests must name a dataset")
        if datalake is not None and not datalake.has_dataset(request.dataset):
            return ValidationResult(False, f"dataset {request.dataset!r} is not in the lake")
        return ValidationResult(True)


def main() -> None:
    testbed = LIDCTestbed.single_cluster(seed=7)

    # The whole integration: one declarative registration.
    testbed.register_service(ServiceDefinition(
        name="WORDCOUNT",
        runner=WordCountRunner(),
        schema=ServiceSchema(fields=(
            ParamField("min_len", int, default=1, minimum=1,
                       doc="minimum token length counted"),)),
        validator=WordCountValidator(),
        description="token count over a data-lake dataset",
    ))

    cluster = testbed.cluster("cluster-a")
    cluster.datalake.publish_bytes(
        "shopping-list", b"apples bread camembert dates eggs flour grapes")

    request = ComputeRequest(app="WORDCOUNT", cpu=1, memory_gb=1,
                             dataset="shopping-list", params={"min_len": "6"})
    print(f"Compute name: {request.to_name()}")
    outcome = testbed.submit_and_wait(request, poll_interval_s=5.0)
    if not outcome.succeeded:
        raise SystemExit(f"workflow failed: {outcome.error}")
    print(f"Executed on : {outcome.submission.cluster}")
    print(f"Result      : {outcome.result_payload.decode()}")

    # The schema rejects a malformed request before any pod is spawned.
    bad = testbed.submit_and_wait(
        ComputeRequest(app="WORDCOUNT", cpu=1, memory_gb=1,
                       dataset="shopping-list", params={"min_len": "lots"}))
    print(f"Schema guard: accepted={bad.succeeded} error={bad.error!r}")


if __name__ == "__main__":
    main()
