"""Application runners: how each named application actually computes.

An application runner builds the Kubernetes pod workload for one accepted
request: it has one method, ``build_pod_spec(request, datalake)``.
Dispatch from the ``app=`` parameter to a runner is owned by the
declarative service plane (:mod:`repro.core.service`): each runner is
carried by a :class:`~repro.core.service.ServiceDefinition` together with its
parameter schema, validator and cache policy, and the gateway looks it up in
the :class:`~repro.core.service.ServiceRegistry`.

Three applications ship with the reproduction:

* ``BLAST`` — the paper's Magic-BLAST workload.  Paper-scale samples (sized
  placeholders in the data lake) use the calibrated
  :class:`~repro.genomics.runtime_model.BlastRuntimeModel`; small synthetic
  samples with real payloads run the genuine
  :class:`~repro.genomics.blast.MagicBlast` aligner.
* ``COMPRESS`` — the file-compression tool the paper mentions as a second
  application with different validation needs.
* ``SLEEP`` — a trivial fixed-duration application used by benchmarks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from repro.cluster.pod import Container, PodSpec, ResourceRequirements, WorkloadResult
from repro.core.spec import ComputeRequest
from repro.datalake.repo import DataLake
from repro.genomics.blast import MagicBlast
from repro.genomics.reference import ReferenceDatabase
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sequences import FastaRecord, FastqRecord
from repro.genomics.sra import SraRegistry

__all__ = [
    "BlastApplication",
    "CompressApplication",
    "SleepApplication",
]

#: Nominal compression throughput (bytes/second) for the COMPRESS application.
COMPRESS_THROUGHPUT_BPS = 150e6
#: Nominal startup overhead added to every application container.
CONTAINER_STARTUP_S = 2.0


def _parse_fasta(text: str) -> list[FastaRecord]:
    records: list[FastaRecord] = []
    identifier, description, chunks = None, "", []
    for line in text.splitlines():
        if line.startswith(">"):
            if identifier is not None:
                records.append(FastaRecord(identifier, "".join(chunks), description))
            header = line[1:].split(None, 1)
            identifier = header[0]
            description = header[1] if len(header) > 1 else ""
            chunks = []
        elif line.strip():
            chunks.append(line.strip())
    if identifier is not None:
        records.append(FastaRecord(identifier, "".join(chunks), description))
    return records


def _parse_fastq(text: str) -> list[FastqRecord]:
    lines = [line for line in text.splitlines() if line]
    records = []
    for offset in range(0, len(lines) - 3, 4):
        records.append(
            FastqRecord(
                identifier=lines[offset].lstrip("@"),
                sequence=lines[offset + 1],
                qualities=lines[offset + 3],
            )
        )
    return records


@dataclass
class BlastApplication:
    """The Magic-BLAST application runner."""

    model: BlastRuntimeModel
    registry: SraRegistry
    #: Simulated duration charged per read when the real aligner runs.
    per_read_cost_s: float = 0.002

    def build_pod_spec(self, request: ComputeRequest, datalake: Optional[DataLake]) -> PodSpec:
        def workload(pod) -> WorkloadResult:
            return self._execute(request, datalake)

        container = Container(
            name="magic-blast",
            image="ncbi/magicblast:1.7",
            resources=ResourceRequirements.of(
                cpu=request.cpu, memory=f"{request.memory_gb:g}Gi"
            ),
            command=["magicblast", "-sra", request.dataset or "", "-db", request.reference or ""],
            workload=workload,
            startup_delay_s=CONTAINER_STARTUP_S,
        )
        return PodSpec(containers=[container])

    # -- execution ---------------------------------------------------------------------

    def _execute(self, request: ComputeRequest, datalake: Optional[DataLake]) -> WorkloadResult:
        dataset_id = request.dataset or ""
        record = datalake.catalog.try_get(dataset_id) if datalake is not None else None
        if record is not None and record.has_payload:
            return self._run_real_aligner(request, datalake)
        return self._run_modelled(request)

    def _run_modelled(self, request: ComputeRequest) -> WorkloadResult:
        estimate = self.model.estimate(
            request.dataset or "", reference=request.reference or "HUMAN",
            cpu=request.cpu, memory_gb=request.memory_gb,
        )
        return WorkloadResult(
            duration_s=estimate.runtime_s,
            output={
                "result_size_bytes": estimate.output_size_bytes,
                "aligner": "modelled",
                "srr_id": estimate.srr_id,
                "reference": estimate.reference,
            },
        )

    def _run_real_aligner(self, request: ComputeRequest, datalake: DataLake) -> WorkloadResult:
        reference_id = (request.reference or "synthetic-reference").lower()
        # Accept either a dataset id present in the lake or the conventional
        # synthetic reference name.
        candidates = [request.reference or "", reference_id, "synthetic-reference"]
        reference_record = None
        for candidate in candidates:
            if candidate and datalake.has_dataset(candidate):
                reference_record = datalake.get_record(candidate)
                break
        if reference_record is None or not reference_record.has_payload:
            return WorkloadResult(
                duration_s=0.0, error=f"reference {request.reference!r} not materialised in the lake"
            )
        contigs = _parse_fasta(datalake.read_bytes(reference_record.dataset_id).decode("utf-8"))
        reference = ReferenceDatabase.from_contigs(reference_record.dataset_id, contigs)
        reads = _parse_fastq(datalake.read_bytes(request.dataset or "").decode("utf-8"))
        aligner = MagicBlast(reference)
        result = aligner.run(reads)
        duration = CONTAINER_STARTUP_S + self.per_read_cost_s * max(1, result.total_reads) / max(
            1.0, request.cpu
        )
        return WorkloadResult(
            duration_s=duration,
            output={
                "result_size_bytes": result.output_size_bytes,
                "result_payload": result.output,
                "aligner": "seed-and-extend",
                "aligned_reads": result.aligned_reads,
                "total_reads": result.total_reads,
                "alignment_rate": result.alignment_rate,
            },
        )


@dataclass
class CompressApplication:
    """A file-compression application (zlib over materialised datasets)."""

    throughput_bps: float = COMPRESS_THROUGHPUT_BPS

    def build_pod_spec(self, request: ComputeRequest, datalake: Optional[DataLake]) -> PodSpec:
        def workload(pod) -> WorkloadResult:
            return self._execute(request, datalake)

        container = Container(
            name="compress",
            image="alpine:gzip",
            resources=ResourceRequirements.of(
                cpu=request.cpu, memory=f"{request.memory_gb:g}Gi"
            ),
            workload=workload,
            startup_delay_s=CONTAINER_STARTUP_S,
        )
        return PodSpec(containers=[container])

    def _execute(self, request: ComputeRequest, datalake: Optional[DataLake]) -> WorkloadResult:
        dataset_id = request.dataset or ""
        if datalake is None or not datalake.has_dataset(dataset_id):
            return WorkloadResult(duration_s=0.0, error=f"dataset {dataset_id!r} not found")
        record = datalake.get_record(dataset_id)
        level = int(request.params.get("level", "6"))
        duration = record.size_bytes / self.throughput_bps * (0.6 + 0.1 * level)
        if record.has_payload:
            compressed = zlib.compress(datalake.read_bytes(dataset_id), level=level)
            return WorkloadResult(
                duration_s=max(duration, 0.001),
                output={
                    "result_size_bytes": len(compressed),
                    "result_payload": compressed,
                    "compression_ratio": len(compressed) / max(1, record.size_bytes),
                },
            )
        # Placeholder datasets: model a 3.2x compression ratio for FASTQ-like text.
        return WorkloadResult(
            duration_s=duration,
            output={"result_size_bytes": int(record.size_bytes / 3.2), "compression_ratio": 1 / 3.2},
        )


@dataclass
class SleepApplication:
    """Fixed-duration no-op application (benchmarks and overlay tests)."""

    default_duration_s: float = 10.0

    def build_pod_spec(self, request: ComputeRequest, datalake: Optional[DataLake]) -> PodSpec:
        duration = float(request.params.get("duration", self.default_duration_s))

        container = Container(
            name="sleep",
            image="busybox:latest",
            resources=ResourceRequirements.of(
                cpu=request.cpu, memory=f"{request.memory_gb:g}Gi"
            ),
            workload=lambda pod: WorkloadResult(
                duration_s=duration, output={"result_size_bytes": 1024}
            ),
            startup_delay_s=0.5,
        )
        return PodSpec(containers=[container])
