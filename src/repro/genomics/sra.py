"""Sequence Read Archive accessions (SRR ids) and their registry.

The paper's gateway performs application-specific validation of SRR ids
(§IV-B) and its data-loading tool downloads two specific samples (§V-B):

* ``SRR2931415`` — rice RNA-seq (one of the 99-sample heat/dehydration
  stress time series);
* ``SRR5139395`` — human kidney tumour RNA-seq (one of the 36-sample
  nephrectomy study).

The registry stores per-accession metadata (organism, genome type, read
counts, download size) used by the runtime model and the data lake.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import UnknownAccession

__all__ = ["is_valid_srr_id", "SraAccession", "SraRegistry", "PAPER_ACCESSIONS"]

_SRR_RE = re.compile(r"^[SED]RR\d{6,9}$")
#: Download size per read of a synthetic sample, in bytes.
SYNTHETIC_BYTES_PER_READ = 75.0


def is_valid_srr_id(accession: str) -> bool:
    """Syntactic validation of an SRA run accession (SRR/ERR/DRR + 6-9 digits)."""
    return bool(_SRR_RE.match(accession or ""))


@dataclass(frozen=True)
class SraAccession:
    """Metadata for one SRA run."""

    accession: str
    organism: str
    genome_type: str  # e.g. "RICE", "KIDNEY" — the label used in Table I
    read_count: int
    read_length: int
    size_bytes: int
    study: str = ""
    layout: str = "SINGLE"

    def __post_init__(self) -> None:
        if not is_valid_srr_id(self.accession):
            raise UnknownAccession(f"malformed SRA accession {self.accession!r}")

    @property
    def base_count(self) -> int:
        """Total number of sequenced bases."""
        return self.read_count * self.read_length


#: The two samples evaluated in the paper's Table I, with sizes representative
#: of the public SRA entries (download sizes; used only for modelling).
PAPER_ACCESSIONS: tuple[SraAccession, ...] = (
    SraAccession(
        accession="SRR2931415",
        organism="Oryza sativa",
        genome_type="RICE",
        read_count=21_500_000,
        read_length=101,
        size_bytes=1_600_000_000,
        study="Rice gene expression in heat stress and dehydration stress",
        layout="SINGLE",
    ),
    SraAccession(
        accession="SRR5139395",
        organism="Homo sapiens",
        genome_type="KIDNEY",
        read_count=62_000_000,
        read_length=100,
        size_bytes=4_700_000_000,
        study="RNA-seq of non-tumor kidney tissues (sorafenib metabolism)",
        layout="PAIRED",
    ),
)


class SraRegistry:
    """An in-memory catalogue of SRA accessions, the paper's two included."""

    def __init__(self) -> None:
        self._accessions: dict[str, SraAccession] = {}
        for accession in PAPER_ACCESSIONS:
            self.register(accession)

    def register(self, accession: SraAccession) -> SraAccession:
        """Add (or replace) an accession in the registry."""
        self._accessions[accession.accession] = accession
        return accession

    def register_synthetic(
        self,
        accession: str,
        genome_type: str,
        read_count: int,
        read_length: int = 100,
        organism: str = "synthetic",
    ) -> SraAccession:
        """Register a synthetic sample sized from its read count."""
        entry = SraAccession(
            accession=accession,
            organism=organism,
            genome_type=genome_type,
            read_count=read_count,
            read_length=read_length,
            size_bytes=int(read_count * SYNTHETIC_BYTES_PER_READ),
            study="synthetic sample",
        )
        return self.register(entry)

    def get(self, accession: str) -> SraAccession:
        """Look up an accession; raises :class:`UnknownAccession` when absent."""
        try:
            return self._accessions[accession]
        except KeyError:
            raise UnknownAccession(f"accession {accession!r} is not in the registry") from None

    def try_get(self, accession: str) -> Optional[SraAccession]:
        return self._accessions.get(accession)

    def __contains__(self, accession: str) -> bool:
        return accession in self._accessions

    def __len__(self) -> int:
        return len(self._accessions)

    def accessions(self) -> list[SraAccession]:
        return sorted(self._accessions.values(), key=lambda acc: acc.accession)

    def update(self, accessions: Iterable[SraAccession]) -> None:
        for accession in accessions:
            self.register(accession)
