"""Tests for synthetic sequences and the SRA registry."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.core.cluster_endpoint import LIDCCluster
from repro.core.validation import BlastValidator
from repro.datalake.loader import DataLoadingTool
from repro.exceptions import GenomicsError, UnknownAccession
from repro.genomics.runtime_model import BlastRuntimeModel
from repro.genomics.sequences import (
    FastaRecord,
    FastqRecord,
    SequenceGenerator,
    reverse_complement,
    write_fasta,
    write_fastq,
)
from repro.genomics.sra import PAPER_ACCESSIONS, SraAccession, SraRegistry, is_valid_srr_id
from repro.sim.engine import Environment


class TestSequencePrimitives:
    def test_reverse_complement(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AACC") == "GGTT"
        assert reverse_complement("") == ""

    def test_reverse_complement_rejects_invalid(self):
        with pytest.raises(GenomicsError):
            reverse_complement("ACGX")

    @given(st.text(alphabet="ACGT", min_size=0, max_size=200))
    def test_reverse_complement_is_involution(self, sequence):
        assert reverse_complement(reverse_complement(sequence)) == sequence

    @given(st.text(alphabet="ACGT", min_size=0, max_size=200))
    def test_reverse_complement_preserves_gc_count(self, sequence):
        def gc(text):
            return text.count("G") + text.count("C")

        assert gc(reverse_complement(sequence)) == gc(sequence)


class TestRecords:
    def test_fasta_formatting_wraps_lines(self):
        record = FastaRecord("chr1", "A" * 150, description="test")
        text = record.to_fasta(width=70)
        lines = text.strip().split("\n")
        assert lines[0] == ">chr1 test"
        assert len(lines[1]) == 70
        assert sum(len(line) for line in lines[1:]) == 150

    def test_fastq_formatting(self):
        record = FastqRecord("read.1", "ACGT", "IIII")
        text = record.to_fastq()
        assert text.split("\n")[:4] == ["@read.1", "ACGT", "+", "IIII"]

    def test_write_helpers(self):
        fasta = write_fasta([FastaRecord("a", "ACGT")])
        fastq = write_fastq([FastqRecord("r", "ACGT")])
        assert fasta.startswith(">a")
        assert fastq.startswith("@r")


class TestSequenceGenerator:
    def test_genome_is_deterministic(self):
        a = SequenceGenerator(seed=5).random_genome(1000).sequence
        b = SequenceGenerator(seed=5).random_genome(1000).sequence
        assert a == b

    def test_genome_length_and_alphabet(self):
        genome = SequenceGenerator(seed=1).random_genome(500)
        assert len(genome) == 500
        assert set(genome.sequence) <= set("ACGT")

    def test_invalid_parameters_rejected(self):
        generator = SequenceGenerator()
        with pytest.raises(GenomicsError):
            generator.random_genome(0)

    def test_reads_come_from_genome(self):
        generator = SequenceGenerator(seed=4)
        genome = generator.random_genome(5_000)
        reads = generator.simulate_reads(genome, read_count=20, read_length=80, error_rate=0.0)
        assert len(reads) == 20
        for read in reads:
            assert len(read) == 80
            assert (read.sequence in genome.sequence
                    or reverse_complement(read.sequence) in genome.sequence)

    def test_read_longer_than_genome_rejected(self):
        generator = SequenceGenerator()
        genome = generator.random_genome(50)
        with pytest.raises(GenomicsError):
            generator.simulate_reads(genome, read_count=1, read_length=100)


class TestSraRegistry:
    @pytest.mark.parametrize("accession,valid", [
        ("SRR2931415", True), ("SRR5139395", True), ("ERR123456", True), ("DRR000001", True),
        ("SRR12345", False), ("SRX123456", False), ("notanid", False), ("", False),
        ("SRR1234567890", False),
    ])
    def test_srr_id_validation(self, accession, valid):
        assert is_valid_srr_id(accession) is valid

    def test_paper_accessions_present_by_default(self):
        registry = SraRegistry()
        assert "SRR2931415" in registry
        assert "SRR5139395" in registry
        assert registry.get("SRR2931415").genome_type == "RICE"
        assert registry.get("SRR5139395").genome_type == "KIDNEY"

    def test_unknown_accession_raises(self):
        with pytest.raises(UnknownAccession):
            SraRegistry().get("SRR9999999")

    def test_malformed_accession_object_rejected(self):
        with pytest.raises(UnknownAccession):
            SraAccession(accession="BAD", organism="x", genome_type="X",
                         read_count=1, read_length=1, size_bytes=1)

    def test_register_synthetic(self):
        registry = SraRegistry()
        entry = registry.register_synthetic("SRR0000123", genome_type="TEST", read_count=1000)
        assert entry.size_bytes == 75_000
        assert registry.get("SRR0000123").genome_type == "TEST"

    def test_by_genome_type(self):
        registry = SraRegistry()
        assert [a.accession for a in registry.by_genome_type("RICE")] == ["SRR2931415"]

    def test_validate_matches_gateway_rules(self):
        registry = SraRegistry()
        assert registry.validate("SRR2931415") == (True, "ok")
        ok, message = registry.validate("garbage")
        assert not ok and "malformed" in message
        ok, message = registry.validate("SRR7777777")
        assert not ok and "not present" in message

    def test_base_count(self):
        accession = PAPER_ACCESSIONS[0]
        assert accession.base_count == accession.read_count * accession.read_length


#: Every component that takes an optional ``registry=`` and keeps it.
_REGISTRY_OWNERS = {
    "BlastValidator": lambda registry: BlastValidator(registry=registry),
    "BlastRuntimeModel": lambda registry: BlastRuntimeModel(registry=registry),
    "DataLoadingTool": lambda registry: DataLoadingTool(
        Cluster(Environment(), ClusterSpec(name="c", node_count=1)), registry=registry
    ),
    "LIDCCluster": lambda registry: LIDCCluster(
        Environment(), ClusterSpec(name="c", node_count=1),
        registry=registry, load_paper_datasets=False,
    ),
}


@pytest.mark.parametrize("owner", list(_REGISTRY_OWNERS))
def test_caller_registry_is_kept(owner):
    """The registry a caller passes is the one the component keeps: a
    fresh default in its place would hide the accessions the caller
    registers afterwards."""
    registry = SraRegistry()
    component = _REGISTRY_OWNERS[owner](registry)
    assert component.registry is registry
    registry.register_synthetic("SRR0000123", genome_type="TEST", read_count=1000)
    assert component.registry.get("SRR0000123").genome_type == "TEST"
