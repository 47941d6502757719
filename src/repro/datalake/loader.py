"""The data-loading tool (paper §V-B).

"To evaluate the crucial step of creating and loading the PVCs of the data
lake with content to be published, LIDC provides a data loading tool that
downloads and sets up the human reference database and sample Sequence Read
Archive (SRA) genome files."

The tool creates the PVCs, loads the reference database and the SRA samples
(as sized placeholders at paper scale, or as real synthetic payloads for
small-scale runs), registers everything in the data-lake catalogue, and
reports what it loaded.  As the paper notes, this is a one-time operation that
does not contribute to later retrieval delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.cluster import Cluster
from repro.datalake.catalog import DatasetKind
from repro.datalake.repo import DataLake
from repro.genomics.reference import ReferenceDatabase
from repro.genomics.sequences import SequenceGenerator, write_fasta, write_fastq
from repro.genomics.sra import SraRegistry

__all__ = ["LoadReport", "DataLoadingTool"]

#: Length of the synthetic reference genome, in bases.
SYNTHETIC_GENOME_LENGTH = 20_000
#: Reads simulated per synthetic sample.
SYNTHETIC_READ_COUNT = 200
#: The synthetic SRA samples, in load order.
SYNTHETIC_SAMPLE_IDS = ("SRR0000001", "SRR0000002")


@dataclass
class LoadReport:
    """What one loader invocation set up."""

    pvc_name: str
    datasets_loaded: list[str] = field(default_factory=list)
    total_bytes: int = 0
    elapsed_s: float = 0.0

    def add(self, dataset_id: str, size_bytes: int) -> None:
        self.datasets_loaded.append(dataset_id)
        self.total_bytes += size_bytes


class DataLoadingTool:
    """Sets up the data lake contents for a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        registry: Optional[SraRegistry] = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.registry = registry if registry is not None else SraRegistry()
        self.generator = SequenceGenerator(seed=seed)

    # -- PVC + lake creation --------------------------------------------------------------

    def create_datalake(self, pvc_name: str = "datalake-pvc",
                        lake_name: Optional[str] = None) -> DataLake:
        """Create the PVC and wrap it in a :class:`DataLake`."""
        pvc = self.cluster.create_pvc(pvc_name)
        return DataLake(
            pvc,
            name=lake_name or f"{self.cluster.name}-datalake",
            clock=lambda: self.cluster.env.now,
        )

    # -- paper-scale loading -----------------------------------------------------------------

    def load_paper_datasets(self, lake: DataLake) -> LoadReport:
        """Load the human reference plus the rice and kidney SRA samples (placeholders)."""
        start = self.cluster.env.now
        report = LoadReport(pvc_name=lake.pvc.name)

        reference = ReferenceDatabase.placeholder("HUMAN")
        record = lake.publish_placeholder(
            "human-reference",
            reference.size_bytes,
            kind=DatasetKind.REFERENCE,
            description="GRCh38 human reference database",
            metadata={"organism": reference.organism, "reference": reference.name},
        )
        report.add(record.dataset_id, record.size_bytes)

        for accession in self.registry.accessions():
            record = lake.publish_placeholder(
                accession.accession,
                accession.size_bytes,
                kind=DatasetKind.SRA_SAMPLE,
                description=accession.study,
                metadata={
                    "organism": accession.organism,
                    "genome_type": accession.genome_type,
                    "read_count": str(accession.read_count),
                    "read_length": str(accession.read_length),
                },
            )
            report.add(record.dataset_id, record.size_bytes)

        report.elapsed_s = self.cluster.env.now - start
        return report

    # -- small-scale (materialised) loading ------------------------------------------------------

    def load_synthetic_datasets(self, lake: DataLake) -> LoadReport:
        """Load a small synthetic reference and samples with real payloads.

        A :data:`SYNTHETIC_GENOME_LENGTH`-base genome and, for each of
        :data:`SYNTHETIC_SAMPLE_IDS`, :data:`SYNTHETIC_READ_COUNT` reads
        simulated from it.
        """
        start = self.cluster.env.now
        report = LoadReport(pvc_name=lake.pvc.name)

        genome = self.generator.random_genome(SYNTHETIC_GENOME_LENGTH, name="synthetic-chr1")
        reference_fasta = write_fasta([genome])
        record = lake.publish_bytes(
            "synthetic-reference",
            reference_fasta,
            kind=DatasetKind.REFERENCE,
            description="synthetic reference genome",
            metadata={"length": str(SYNTHETIC_GENOME_LENGTH)},
        )
        report.add(record.dataset_id, record.size_bytes)

        for sample_id in SYNTHETIC_SAMPLE_IDS:
            reads = self.generator.simulate_reads(
                genome, read_count=SYNTHETIC_READ_COUNT, read_length=100, prefix=sample_id
            )
            fastq = write_fastq(reads)
            if sample_id not in self.registry:
                self.registry.register_synthetic(
                    sample_id, genome_type="SYNTHETIC", read_count=SYNTHETIC_READ_COUNT
                )
            record = lake.publish_bytes(
                sample_id,
                fastq,
                kind=DatasetKind.SRA_SAMPLE,
                description=f"synthetic SRA sample {sample_id}",
                metadata={"read_count": str(SYNTHETIC_READ_COUNT), "genome_type": "SYNTHETIC"},
            )
            report.add(record.dataset_id, record.size_bytes)

        report.elapsed_s = self.cluster.env.now - start
        return report
