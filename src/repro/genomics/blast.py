"""A small-scale Magic-BLAST equivalent: seed-and-extend read alignment.

This is a genuine aligner (k-mer seeding, ungapped extension with a simple
match/mismatch score, best-hit selection) that the tests and examples run on
synthetic genomes, so the end-to-end compute path of the reproduction —
gateway → job → aligner → compressed output → data lake — is real.  The
paper-scale runs in the benchmarks use :mod:`repro.genomics.runtime_model`
instead of executing the aligner on billions of bases.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import GenomicsError
from repro.genomics.reference import ReferenceDatabase
from repro.genomics.sequences import FastqRecord, reverse_complement

__all__ = ["Alignment", "BlastResult", "MagicBlast"]

#: Lowest fraction of matching positions for a read to count as aligned.
MIN_IDENTITY = 0.8
#: Offset between consecutive k-mer seeds taken from a read.
SEED_STRIDE = 4


@dataclass(frozen=True)
class Alignment:
    """One read-to-reference alignment."""

    read_id: str
    contig: str
    read_start: int
    contig_start: int
    length: int
    matches: int
    mismatches: int
    strand: str = "+"

    @property
    def identity(self) -> float:
        """Fraction of aligned positions that match."""
        return self.matches / self.length if self.length else 0.0

    @property
    def score(self) -> int:
        """Simple alignment score: +2 per match, -3 per mismatch."""
        return 2 * self.matches - 3 * self.mismatches

    def to_tab(self) -> str:
        """A BLAST-tabular-style output line."""
        return (
            f"{self.read_id}\t{self.contig}\t{self.identity * 100:.2f}\t{self.length}\t"
            f"{self.mismatches}\t{self.read_start}\t{self.contig_start}\t{self.strand}\t{self.score}"
        )


@dataclass
class BlastResult:
    """The outcome of aligning a read set against a reference."""

    reference: str
    total_reads: int
    aligned_reads: int
    alignments: list[Alignment] = field(default_factory=list)
    output: bytes = b""

    @property
    def alignment_rate(self) -> float:
        return self.aligned_reads / self.total_reads if self.total_reads else 0.0

    @property
    def output_size_bytes(self) -> int:
        return len(self.output)


class MagicBlast:
    """Seed-and-extend aligner over a :class:`ReferenceDatabase`."""

    def __init__(self, reference: ReferenceDatabase) -> None:
        if reference.is_placeholder:
            raise GenomicsError(
                "MagicBlast needs a materialised reference; placeholders are for the runtime model"
            )
        self.reference = reference

    # -- alignment of a single read ------------------------------------------------

    def align_read(self, read: FastqRecord) -> Optional[Alignment]:
        """Best alignment of one read, or ``None`` when it does not map."""
        best: Optional[Alignment] = None
        for strand, sequence in (("+", read.sequence), ("-", reverse_complement(read.sequence))):
            candidate = self._align_oriented(read.identifier, sequence, strand)
            if candidate is None:
                continue
            if best is None or candidate.score > best.score:
                best = candidate
        if best is not None and best.identity >= MIN_IDENTITY:
            return best
        return None

    def _align_oriented(self, read_id: str, sequence: str, strand: str) -> Optional[Alignment]:
        index = self.reference.index
        seeds = index.seeds_for(sequence, stride=SEED_STRIDE)
        if not seeds:
            return None
        # Group seeds by implied alignment diagonal (contig, contig_start - read_start).
        diagonals: dict[tuple[str, int], int] = {}
        for read_offset, contig, contig_offset in seeds:
            key = (contig, contig_offset - read_offset)
            diagonals[key] = diagonals.get(key, 0) + 1
        (contig, diagonal), _count = max(diagonals.items(), key=lambda item: (item[1], item[0][0]))
        return self._extend(read_id, sequence, contig, diagonal, strand)

    def _extend(self, read_id: str, sequence: str, contig: str, diagonal: int,
                strand: str) -> Optional[Alignment]:
        contig_record = self.reference.find_contig(contig)
        contig_seq = contig_record.sequence.upper()
        read_seq = sequence.upper()
        contig_start = diagonal
        read_start = 0
        if contig_start < 0:
            read_start = -contig_start
            contig_start = 0
        length = min(len(read_seq) - read_start, len(contig_seq) - contig_start)
        if length <= 0:
            return None
        matches = sum(
            1 for i in range(length)
            if read_seq[read_start + i] == contig_seq[contig_start + i]
        )
        mismatches = length - matches
        return Alignment(
            read_id=read_id,
            contig=contig,
            read_start=read_start,
            contig_start=contig_start,
            length=length,
            matches=matches,
            mismatches=mismatches,
            strand=strand,
        )

    # -- aligning a whole read set -----------------------------------------------------

    def run(self, reads: Iterable[FastqRecord]) -> BlastResult:
        """Align every read; produce the compressed tabular output file."""
        reads = list(reads)
        alignments = []
        for read in reads:
            alignment = self.align_read(read)
            if alignment is not None:
                alignments.append(alignment)
        header = (
            "# repro-magicblast 1.0\n"
            f"# reference: {self.reference.name}\n"
            "# fields: read, contig, identity, length, mismatches, read_start, "
            "contig_start, strand, score\n"
        )
        body = "\n".join(alignment.to_tab() for alignment in alignments)
        output = zlib.compress((header + body + "\n").encode("utf-8"), level=6)
        return BlastResult(
            reference=self.reference.name,
            total_reads=len(reads),
            aligned_reads=len(alignments),
            alignments=alignments,
            output=output,
        )
