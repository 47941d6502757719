"""Synthetic nucleotide sequences, FASTA/FASTQ records and read simulation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.exceptions import GenomicsError
from repro.sim.rng import SeededRNG

__all__ = [
    "NUCLEOTIDES",
    "reverse_complement",
    "FastaRecord",
    "FastqRecord",
    "SequenceGenerator",
    "write_fasta",
    "write_fastq",
]

NUCLEOTIDES = "ACGT"
_COMPLEMENT = str.maketrans("ACGTacgt", "TGCAtgca")
#: Probability of A, C, G and T in a synthetic genome.  Passed to the draw
#: explicitly: ``choice`` with ``p`` consumes the stream differently from a
#: plain uniform ``choice``, and the synthetic datasets (and every output
#: built on them) must stay the same genome for a given seed.
_BASE_PROBABILITIES = np.array([0.25, 0.25, 0.25, 0.25])


def reverse_complement(sequence: str) -> str:
    """The reverse complement of a DNA sequence."""
    _validate(sequence)
    return sequence.translate(_COMPLEMENT)[::-1]


def _validate(sequence: str) -> None:
    if not set(sequence.upper()) <= set(NUCLEOTIDES + "N"):
        invalid = sorted(set(sequence.upper()) - set(NUCLEOTIDES + "N"))
        raise GenomicsError(f"invalid nucleotide characters: {invalid}")


@dataclass(frozen=True)
class FastaRecord:
    """A named sequence (reference contigs, genes)."""

    identifier: str
    sequence: str
    description: str = ""

    def __len__(self) -> int:
        return len(self.sequence)

    def to_fasta(self, width: int = 70) -> str:
        header = f">{self.identifier}"
        if self.description:
            header += f" {self.description}"
        lines = [header]
        for offset in range(0, len(self.sequence), width):
            lines.append(self.sequence[offset:offset + width])
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FastqRecord:
    """A sequenced read with per-base quality scores."""

    identifier: str
    sequence: str
    qualities: str = ""

    def __len__(self) -> int:
        return len(self.sequence)

    def to_fastq(self) -> str:
        qualities = self.qualities or "I" * len(self.sequence)
        return f"@{self.identifier}\n{self.sequence}\n+\n{qualities}\n"


class SequenceGenerator:
    """Deterministic generator of genomes and sequencing reads."""

    def __init__(self, rng: Optional[SeededRNG] = None, seed: int = 0) -> None:
        self.rng = rng or SeededRNG(seed)

    # -- genomes -----------------------------------------------------------------

    def random_genome(self, length: int, name: str = "contig-1") -> FastaRecord:
        """A random genome, each base equally likely (GC content 0.5)."""
        if length <= 0:
            raise GenomicsError(f"genome length must be positive, got {length}")
        stream = self.rng.stream(f"genome:{name}")
        indices = stream.choice(4, size=length, p=_BASE_PROBABILITIES)
        sequence = "".join(NUCLEOTIDES[i] for i in indices)
        return FastaRecord(identifier=name, sequence=sequence, description="synthetic genome")

    # -- reads --------------------------------------------------------------------

    def simulate_reads(
        self,
        genome: FastaRecord,
        read_count: int,
        read_length: int = 100,
        error_rate: float = 0.005,
        prefix: str = "read",
    ) -> list[FastqRecord]:
        """Sample reads uniformly from the genome, with sequencing errors."""
        if read_length > len(genome):
            raise GenomicsError(
                f"read length {read_length} exceeds genome length {len(genome)}"
            )
        stream = self.rng.stream(f"reads:{genome.identifier}:{prefix}")
        reads = []
        max_start = len(genome) - read_length
        for index in range(read_count):
            start = int(stream.integers(0, max_start + 1))
            fragment = genome.sequence[start:start + read_length]
            if stream.random() < 0.5:
                fragment = reverse_complement(fragment)
            bases = list(fragment)
            n_errors = stream.binomial(read_length, error_rate)
            if n_errors:
                error_positions = stream.choice(read_length, size=n_errors, replace=False)
                for pos in error_positions:
                    current = bases[pos]
                    alternatives = [b for b in NUCLEOTIDES if b != current.upper()]
                    bases[pos] = alternatives[int(stream.integers(0, len(alternatives)))]
            qualities = "".join(
                chr(33 + int(q)) for q in stream.integers(30, 41, size=read_length)
            )
            reads.append(
                FastqRecord(
                    identifier=f"{prefix}.{index}",
                    sequence="".join(bases),
                    qualities=qualities,
                )
            )
        return reads


def write_fasta(records: Iterable[FastaRecord]) -> str:
    """Serialise records to FASTA text."""
    return "".join(record.to_fasta() for record in records)


def write_fastq(records: Iterable[FastqRecord]) -> str:
    """Serialise records to FASTQ text."""
    return "".join(record.to_fastq() for record in records)
