#!/usr/bin/env python3
"""Publishing and retrieving named datasets through the data lake (§III-C, §V-B).

Shows the data side of LIDC:

* the data-loading tool populating the PVC-backed lake with the paper's
  datasets (as sized placeholders) and with small synthetic datasets carrying
  real FASTA/FASTQ payloads;
* retrieval purely by name (``/ndn/k8s/data/<dataset>``), including segmented
  transfer of a multi-kilobyte object and reassembly at the client;
* a computation whose *output* lands back in the lake under a result name that
  a later request can fetch — the paper's intermediate-dataset flow.

Run with::

    python examples/datalake_publish_retrieve.py
"""

import _path_setup  # noqa: F401

import json

from repro.core import ComputeRequest, LIDCTestbed


def main() -> None:
    testbed = LIDCTestbed.single_cluster(seed=11, load_synthetic_datasets=True)
    cluster = testbed.cluster("cluster-a")
    client = testbed.client(poll_interval_s=5.0)

    print("Datasets loaded into the data lake by the loading tool:")
    for record in cluster.datalake.catalog.records():
        kind = record.kind.value
        size_mb = record.size_bytes / 1e6
        payload = "materialised" if record.has_payload else "sized placeholder"
        print(f"  {str(record.content_name):<45s} {kind:<12s} {size_mb:12,.1f} MB  ({payload})")

    def fetch_catalog():
        data = yield client.consumer.express_interest("/ndn/k8s/data/_catalog")
        return json.loads(data.content_text())

    listing = testbed.run_process(fetch_catalog())
    print(f"\nCatalog listing served over NDN: {listing['count']} datasets, "
          f"{listing['total_bytes'] / 1e9:.2f} GB total")

    def fetch_reference():
        manifest, payload = yield from client.retrieve_dataset("synthetic-reference")
        return manifest, payload

    manifest, payload = testbed.run_process(fetch_reference())
    print(f"\nRetrieved 'synthetic-reference' by name: {manifest['size_bytes']} bytes "
          f"in {-(-manifest['size_bytes'] // 8192)} segments")
    print(f"  first FASTA header line: {payload.decode().splitlines()[0]}")

    print("\nRunning a real (small-scale) BLAST whose output is published back to the lake...")
    outcome = testbed.submit_and_wait(
        ComputeRequest(app="BLAST", cpu=1, memory_gb=1,
                       dataset="SRR0000001", reference="synthetic-reference"),
        client=testbed.client(poll_interval_s=5.0),
    )
    print(f"  job {outcome.submission.job_id} -> {outcome.state.value}")
    print(f"  result published as {outcome.result_name} ({outcome.result_size_bytes} bytes)")

    def fetch_result_again():
        manifest, payload = yield from client.retrieve_result(outcome.result_name)
        return manifest, payload

    result_manifest, result_payload = testbed.run_process(fetch_result_again())
    print(f"  re-fetched the result by name: {result_manifest['size_bytes']} bytes, "
          f"produced by job {result_manifest['metadata']['source_job']}")
    print(f"  compressed alignment report starts with: {result_payload[:16]!r}")


if __name__ == "__main__":
    main()
