#!/usr/bin/env python3
"""The paper's genomics workflow (§IV, Fig. 5) end to end, for both samples.

Reproduces the evaluation scenario: the data-loading tool has populated the
data lake with the human reference database and the rice / kidney SRA samples;
a client then BLASTs each sample against the human reference under the same
CPU/memory configurations as Table I, polls job status, and retrieves the
result location from the data lake.

Run with::

    python examples/genomics_workflow.py
"""

import _path_setup  # noqa: F401

from repro.analysis.results import ResultTable, format_bytes
from repro.core import LIDCTestbed
from repro.core.workflow import GenomicsWorkflow
from repro.genomics.runtime_model import TABLE1_ROWS, format_runtime


def main() -> None:
    table = ResultTable(
        title="Genomics workflow — reproduction of Table I through the full protocol",
        columns=["SRR ID", "Genome", "Mem(GB)", "CPU", "Run time", "Output", "Cluster",
                 "Status polls"],
    )

    for row in TABLE1_ROWS:
        # A fresh testbed per configuration mirrors the paper's independent runs.
        testbed = LIDCTestbed.single_cluster(seed=7)
        client = testbed.client(poll_interval_s=600.0)
        workflow = GenomicsWorkflow(client, fetch_results=False)
        report = testbed.run_process(
            workflow.blast(row.srr_id, reference=row.reference,
                           cpu=row.cpu, memory_gb=row.memory_gb)
        )
        outcome = report.outcome
        if not outcome.succeeded:
            raise SystemExit(f"workflow failed: {outcome.error}")
        table.add_row(
            row.srr_id, row.genome_type, f"{row.memory_gb:g}", row.cpu,
            format_runtime(outcome.runtime_s or 0.0),
            format_bytes(outcome.result_size_bytes),
            outcome.submission.cluster,
            outcome.status_polls,
        )

    table.add_note("paper values: 8h9m50s / 8h7m10s (rice), 24h16m12s / 24h2m47s (kidney)")
    table.add_note("varying CPU and memory leaves the run time essentially unchanged")
    print("\n" + table.render() + "\n")

    # Show the protocol-step decomposition for the last run (Fig. 5 shape).
    print("Protocol step decomposition of the last workflow (Fig. 5):")
    for step in report.steps:
        print(f"  {step.step:<25s} {step.duration_s:>12,.2f} s   ({step.fraction * 100:6.3f}%)")


if __name__ == "__main__":
    main()
