"""Reference databases and the k-mer index used for seeding alignments."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import GenomicsError
from repro.genomics.sequences import FastaRecord

__all__ = ["KmerIndex", "ReferenceDatabase", "HUMAN_REFERENCE_SIZE_BYTES"]

#: Approximate size of the human reference (GRCh38 FASTA), used for data-lake
#: sizing when the reference is a placeholder.
HUMAN_REFERENCE_SIZE_BYTES = 3_200_000_000


class KmerIndex:
    """An exact k-mer index over a set of reference contigs."""

    def __init__(self, k: int = 11) -> None:
        if k < 4 or k > 32:
            raise GenomicsError(f"k must lie in [4, 32], got {k}")
        self.k = k
        self._index: dict[str, list[tuple[str, int]]] = defaultdict(list)

    def add(self, record: FastaRecord) -> None:
        """Index every k-mer of one contig."""
        sequence = record.sequence.upper()
        for offset in range(0, len(sequence) - self.k + 1):
            kmer = sequence[offset:offset + self.k]
            if "N" in kmer:
                continue
            self._index[kmer].append((record.identifier, offset))

    def lookup(self, kmer: str) -> list[tuple[str, int]]:
        """All (contig, offset) positions of a k-mer."""
        if len(kmer) != self.k:
            raise GenomicsError(f"expected a {self.k}-mer, got length {len(kmer)}")
        return list(self._index.get(kmer.upper(), ()))

    def seeds_for(self, read: str, stride: int = 1) -> list[tuple[int, str, int]]:
        """Seed hits for a read: ``(read_offset, contig, contig_offset)`` triples."""
        read = read.upper()
        seeds = []
        for read_offset in range(0, len(read) - self.k + 1, stride):
            kmer = read[read_offset:read_offset + self.k]
            for contig, contig_offset in self._index.get(kmer, ()):
                seeds.append((read_offset, contig, contig_offset))
        return seeds


@dataclass
class ReferenceDatabase:
    """A named reference database (the paper's ``HUMAN`` reference).

    Small synthetic references carry their contigs and a k-mer index; paper-
    scale references are represented by a declared size (placeholder mode) —
    the runtime model consumes only the metadata.
    """

    name: str
    organism: str
    contigs: list[FastaRecord] = field(default_factory=list)
    declared_size_bytes: Optional[int] = None
    kmer_size: int = 11
    _index: Optional[KmerIndex] = None

    KNOWN_REFERENCES = {
        "HUMAN": ("Homo sapiens", HUMAN_REFERENCE_SIZE_BYTES),
        "RICE": ("Oryza sativa", 400_000_000),
        "MOUSE": ("Mus musculus", 2_800_000_000),
    }

    @classmethod
    def placeholder(cls, name: str) -> "ReferenceDatabase":
        """A paper-scale reference with no sequence payload."""
        if name not in cls.KNOWN_REFERENCES:
            raise GenomicsError(f"unknown reference database {name!r}")
        organism, size = cls.KNOWN_REFERENCES[name]
        return cls(name=name, organism=organism, declared_size_bytes=size)

    @classmethod
    def from_contigs(cls, name: str, contigs: Iterable[FastaRecord], organism: str = "synthetic",
                     kmer_size: int = 11) -> "ReferenceDatabase":
        """A small, fully-materialised reference."""
        db = cls(name=name, organism=organism, contigs=list(contigs), kmer_size=kmer_size)
        db.build_index()
        return db

    # -- index --------------------------------------------------------------------

    def build_index(self) -> KmerIndex:
        """(Re)build the k-mer index over the contigs."""
        index = KmerIndex(k=self.kmer_size)
        for record in self.contigs:
            index.add(record)
        self._index = index
        return index

    @property
    def index(self) -> KmerIndex:
        if self._index is None:
            if not self.contigs:
                raise GenomicsError(
                    f"reference {self.name!r} is a placeholder and has no index"
                )
            self.build_index()
        assert self._index is not None
        return self._index

    # -- metadata -------------------------------------------------------------------

    @property
    def is_placeholder(self) -> bool:
        return not self.contigs

    @property
    def size_bytes(self) -> int:
        """Approximate on-disk FASTA size."""
        if self.declared_size_bytes is not None:
            return self.declared_size_bytes
        return sum(len(record) for record in self.contigs) + 80 * len(self.contigs)

    def find_contig(self, identifier: str) -> FastaRecord:
        for record in self.contigs:
            if record.identifier == identifier:
                return record
        raise GenomicsError(f"no contig {identifier!r} in reference {self.name!r}")

