"""Tests for the reference database, the aligner and the calibrated runtime model."""

import pytest

from repro.exceptions import GenomicsError, UnknownAccession
from repro.genomics.blast import MagicBlast
from repro.genomics.reference import KmerIndex, ReferenceDatabase
from repro.genomics.runtime_model import (
    TABLE1_ROWS,
    BlastRuntimeModel,
    format_runtime,
    _parse_runtime,
)
from repro.genomics.sequences import FastqRecord, SequenceGenerator
from repro.genomics.sra import SraRegistry


@pytest.fixture(scope="module")
def small_reference():
    generator = SequenceGenerator(seed=11)
    genome = generator.random_genome(30_000, name="chrT")
    return genome, ReferenceDatabase.from_contigs("SYNTH", [genome])


class TestKmerIndex:
    def test_invalid_k_rejected(self):
        with pytest.raises(GenomicsError):
            KmerIndex(k=2)

    def test_lookup_finds_positions(self, small_reference):
        genome, reference = small_reference
        kmer = genome.sequence[100:111]
        positions = reference.index.lookup(kmer)
        assert ("chrT", 100) in positions

    def test_lookup_wrong_length_rejected(self, small_reference):
        _, reference = small_reference
        with pytest.raises(GenomicsError):
            reference.index.lookup("ACGT")

    def test_seeds_for_read(self, small_reference):
        genome, reference = small_reference
        read = genome.sequence[500:600]
        seeds = reference.index.seeds_for(read, stride=10)
        assert any(contig == "chrT" and contig_offset - read_offset == 500
                   for read_offset, contig, contig_offset in seeds)

    def test_index_statistics(self, small_reference):
        _, reference = small_reference
        assert reference.index.distinct_kmers > 10_000
        assert reference.index.total_positions >= reference.index.distinct_kmers
        assert reference.index.contig_length("chrT") == 30_000


class TestReferenceDatabase:
    def test_placeholder_known_references(self):
        human = ReferenceDatabase.placeholder("HUMAN")
        assert human.is_placeholder
        assert human.size_bytes > 10**9
        with pytest.raises(GenomicsError):
            ReferenceDatabase.placeholder("MARTIAN")

    def test_placeholder_has_no_index(self):
        human = ReferenceDatabase.placeholder("HUMAN")
        with pytest.raises(GenomicsError):
            _ = human.index

    def test_find_contig(self, small_reference):
        _, reference = small_reference
        assert reference.find_contig("chrT").identifier == "chrT"
        with pytest.raises(GenomicsError):
            reference.find_contig("chrMissing")


class TestMagicBlast:
    def test_rejects_placeholder_reference(self):
        with pytest.raises(GenomicsError):
            MagicBlast(ReferenceDatabase.placeholder("HUMAN"))

    def test_aligns_true_reads(self, small_reference):
        genome, reference = small_reference
        generator = SequenceGenerator(seed=12)
        reads = generator.simulate_reads(genome, read_count=100, read_length=100, error_rate=0.01)
        result = MagicBlast(reference).run(reads)
        assert result.total_reads == 100
        assert result.aligned_reads >= 95
        assert result.alignment_rate >= 0.95

    def test_noise_reads_rarely_align(self, small_reference):
        _, reference = small_reference
        # Reads of another random genome share no 100-base stretch with chrT.
        generator = SequenceGenerator(seed=13)
        unrelated = generator.random_genome(30_000, name="chrU")
        noise = generator.simulate_reads(unrelated, read_count=50, read_length=100)
        result = MagicBlast(reference).run(noise)
        assert result.aligned_reads <= 5

    def test_reverse_complement_reads_align(self, small_reference):
        genome, reference = small_reference
        from repro.genomics.sequences import reverse_complement
        fragment = genome.sequence[2000:2100]
        read = FastqRecord("rc-read", reverse_complement(fragment))
        alignment = MagicBlast(reference).align_read(read)
        assert alignment is not None
        assert alignment.strand == "-"
        assert alignment.identity > 0.95

    def test_alignment_fields_consistent(self, small_reference):
        genome, reference = small_reference
        read = FastqRecord("exact", genome.sequence[3000:3100])
        alignment = MagicBlast(reference).align_read(read)
        assert alignment.contig == "chrT"
        assert alignment.contig_start == 3000
        assert alignment.matches == alignment.length
        assert alignment.mismatches == 0
        assert alignment.identity == 1.0
        assert alignment.score == 2 * alignment.length

    def test_output_is_compressed_and_reportable(self, small_reference):
        genome, reference = small_reference
        reads = SequenceGenerator(seed=14).simulate_reads(genome, read_count=20, read_length=100)
        result = MagicBlast(reference).run(reads)
        assert 0 < result.output_size_bytes < 20 * 200
        report = result.report_text()
        assert "repro-magicblast" in report
        assert len(report.splitlines()) >= result.aligned_reads


class TestRuntimeParsing:
    @pytest.mark.parametrize("text,expected", [
        ("8h9m50s", 29390), ("24h16m12s", 87372), ("1m30s", 90), ("45s", 45), ("2h", 7200),
    ])
    def test_parse_runtime(self, text, expected):
        assert _parse_runtime(text) == expected

    def test_parse_runtime_rejects_garbage(self):
        with pytest.raises(GenomicsError):
            _parse_runtime("fast")
        with pytest.raises(GenomicsError):
            _parse_runtime("10")

    def test_format_round_trip(self):
        for text in ("8h9m50s", "24h2m47s", "0h0m5s"):
            assert _parse_runtime(format_runtime(_parse_runtime(text))) == _parse_runtime(text)


class TestBlastRuntimeModel:
    def test_reproduces_every_table1_row_exactly(self):
        model = BlastRuntimeModel()
        for row, estimate in model.reproduce_table1():
            assert estimate.runtime_s == pytest.approx(row.run_time_s, rel=1e-6)
            assert estimate.output_size_bytes == row.output_size_bytes
        assert model.max_relative_error() < 1e-9

    def test_cpu_and_memory_sensitivity_is_small(self):
        model = BlastRuntimeModel()
        base = model.runtime_seconds("SRR2931415", cpu=2, memory_gb=4)
        more_cpu = model.runtime_seconds("SRR2931415", cpu=8, memory_gb=4)
        more_mem = model.runtime_seconds("SRR2931415", cpu=2, memory_gb=16)
        assert 0 < (base - more_cpu) / base < 0.02
        assert 0 < (base - more_mem) / base < 0.03

    def test_kidney_takes_about_three_times_longer_than_rice(self):
        model = BlastRuntimeModel()
        rice = model.runtime_seconds("SRR2931415", cpu=2, memory_gb=4)
        kidney = model.runtime_seconds("SRR5139395", cpu=2, memory_gb=4)
        assert 2.5 < kidney / rice < 3.5

    def test_unknown_accession_extrapolated_from_registry(self):
        registry = SraRegistry()
        registry.register_synthetic("SRR0001111", genome_type="TEST",
                                    read_count=43_000_000, read_length=101)
        model = BlastRuntimeModel(registry=registry)
        runtime = model.runtime_seconds("SRR0001111", cpu=2, memory_gb=4)
        rice = model.runtime_seconds("SRR2931415", cpu=2, memory_gb=4)
        assert runtime == pytest.approx(2 * rice, rel=0.01)

    def test_unregistered_accession_raises(self):
        with pytest.raises(UnknownAccession):
            BlastRuntimeModel().estimate("SRR8888888")

    def test_invalid_resources_rejected(self):
        model = BlastRuntimeModel()
        with pytest.raises(GenomicsError):
            model.estimate("SRR2931415", cpu=0)
        with pytest.raises(GenomicsError):
            model.estimate("SRR2931415", memory_gb=0)

    def test_noise_fraction_perturbs_runtime(self):
        noisy = BlastRuntimeModel(noise_fraction=0.05)
        clean = BlastRuntimeModel()
        assert noisy.runtime_seconds("SRR2931415") != clean.runtime_seconds("SRR2931415")

    def test_invalid_noise_fraction(self):
        with pytest.raises(GenomicsError):
            BlastRuntimeModel(noise_fraction=0.9)

    def test_output_sizes_match_paper(self):
        model = BlastRuntimeModel()
        assert model.output_size_bytes("SRR2931415") == 941_000_000
        assert model.output_size_bytes("SRR5139395") == 2_710_000_000

    def test_table1_rows_constant(self):
        assert len(TABLE1_ROWS) == 4
        assert {row.reference for row in TABLE1_ROWS} == {"HUMAN"}
