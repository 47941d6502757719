"""Calibrated runtime and output-size model for paper-scale BLAST runs.

Table I of the paper reports four Magic-BLAST runs:

========== ========= ======= ====== === =========== ===========
SRR id     Reference Genome  Memory CPU Run time    Output size
========== ========= ======= ====== === =========== ===========
SRR2931415 HUMAN     RICE    4 GB   2   8h 9m 50s   941 MB
SRR2931415 HUMAN     RICE    4 GB   4   8h 7m 10s   941 MB
SRR5139395 HUMAN     KIDNEY  4 GB   2   24h 16m 12s 2.71 GB
SRR5139395 HUMAN     KIDNEY  6 GB   2   24h 2m 47s  2.71 GB
========== ========= ======= ====== === =========== ===========

The paper's takeaway is that varying the CPU/memory allocation barely moves
the runtime.  We model the runtime as

    T(sample, cpu, mem) = A + B / cpu + C / mem_gb          (seconds)

with per-sample coefficients fitted so that the four table rows are matched
to within a fraction of a percent, the CPU term stays a ~2 % effect and the
memory term a ~3 % effect — reproducing the "no significant change" shape.
Unknown samples get coefficients extrapolated from their base count relative
to the calibrated samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import GenomicsError, UnknownAccession
from repro.genomics.sra import SraAccession, SraRegistry
from repro.sim.rng import SeededRNG

__all__ = ["Table1Row", "TABLE1_ROWS", "RunEstimate", "BlastRuntimeModel", "format_runtime"]


def _parse_runtime(text: str) -> float:
    """Parse ``"8h9m50s"`` into seconds."""
    seconds = 0.0
    number = ""
    for char in text.replace(" ", ""):
        if char.isdigit():
            number += char
        elif char in "hms":
            if not number:
                raise GenomicsError(f"malformed runtime string {text!r}")
            value = int(number)
            seconds += value * {"h": 3600, "m": 60, "s": 1}[char]
            number = ""
        else:
            raise GenomicsError(f"malformed runtime string {text!r}")
    if number:
        raise GenomicsError(f"malformed runtime string {text!r} (trailing {number!r})")
    return seconds


def format_runtime(seconds: float) -> str:
    """Format seconds as ``"8h9m50s"`` (the paper's notation)."""
    seconds = int(round(seconds))
    hours, remainder = divmod(seconds, 3600)
    minutes, secs = divmod(remainder, 60)
    return f"{hours}h{minutes}m{secs}s"


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table I."""

    srr_id: str
    reference: str
    genome_type: str
    memory_gb: float
    cpu: int
    run_time_s: float
    output_size_bytes: int

    @property
    def run_time_text(self) -> str:
        return format_runtime(self.run_time_s)


#: The paper's Table I, verbatim (runtimes converted to seconds).
TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row("SRR2931415", "HUMAN", "RICE", 4, 2, _parse_runtime("8h9m50s"), 941_000_000),
    Table1Row("SRR2931415", "HUMAN", "RICE", 4, 4, _parse_runtime("8h7m10s"), 941_000_000),
    Table1Row("SRR5139395", "HUMAN", "KIDNEY", 4, 2, _parse_runtime("24h16m12s"), 2_710_000_000),
    Table1Row("SRR5139395", "HUMAN", "KIDNEY", 6, 2, _parse_runtime("24h2m47s"), 2_710_000_000),
)


@dataclass(frozen=True)
class RunEstimate:
    """A modelled run: duration and output size."""

    srr_id: str
    reference: str
    cpu: float
    memory_gb: float
    runtime_s: float
    output_size_bytes: int


@dataclass(frozen=True)
class _SampleCoefficients:
    serial_s: float      # A
    cpu_s: float         # B (divided by the CPU count)
    memory_s: float      # C (divided by the memory in GB)
    output_bytes: int


class BlastRuntimeModel:
    """Runtime / output-size model calibrated against Table I."""

    #: Calibrated coefficients for the two paper samples.
    #:
    #: Rice rows differ only in CPU (2 vs 4): ΔT = 160 s = B (1/2 − 1/4) → B = 640 s.
    #: Kidney rows differ only in memory (4 vs 6 GB): ΔT = 805 s = C (1/4 − 1/6) → C = 9660 s.
    #: The remaining coefficients keep each row exact while giving the other
    #: term a comparable relative magnitude for the sample it was not measured on.
    _CALIBRATED = {
        "SRR2931415": _SampleCoefficients(
            serial_s=28_262.0, cpu_s=640.0, memory_s=3_232.0, output_bytes=941_000_000
        ),
        "SRR5139395": _SampleCoefficients(
            serial_s=84_007.0, cpu_s=1_900.0, memory_s=9_660.0, output_bytes=2_710_000_000
        ),
    }

    #: Reference sample used to extrapolate coefficients for unknown accessions.
    _BASELINE_ACCESSION = "SRR2931415"
    _BASELINE_BASES = 21_500_000 * 101

    def __init__(
        self,
        registry: Optional[SraRegistry] = None,
        rng: Optional[SeededRNG] = None,
        noise_fraction: float = 0.0,
    ) -> None:
        self.registry = registry if registry is not None else SraRegistry()
        self.rng = rng or SeededRNG(0)
        if noise_fraction < 0 or noise_fraction >= 0.5:
            raise GenomicsError(f"noise_fraction must lie in [0, 0.5), got {noise_fraction}")
        self.noise_fraction = noise_fraction

    # -- coefficients -----------------------------------------------------------------

    def coefficients(self, srr_id: str) -> _SampleCoefficients:
        """Calibrated (or extrapolated) coefficients for one sample."""
        if srr_id in self._CALIBRATED:
            return self._CALIBRATED[srr_id]
        accession = self.registry.try_get(srr_id)
        if accession is None:
            raise UnknownAccession(f"no metadata for accession {srr_id!r}")
        scale = accession.base_count / self._BASELINE_BASES
        base = self._CALIBRATED[self._BASELINE_ACCESSION]
        return _SampleCoefficients(
            serial_s=base.serial_s * scale,
            cpu_s=base.cpu_s * scale,
            memory_s=base.memory_s * scale,
            output_bytes=int(base.output_bytes * scale),
        )

    # -- estimation --------------------------------------------------------------------

    def estimate(self, srr_id: str, reference: str = "HUMAN", cpu: float = 2,
                 memory_gb: float = 4) -> RunEstimate:
        """Estimate runtime and output size for one configuration."""
        if cpu <= 0:
            raise GenomicsError(f"cpu must be positive, got {cpu}")
        if memory_gb <= 0:
            raise GenomicsError(f"memory_gb must be positive, got {memory_gb}")
        coeff = self.coefficients(srr_id)
        runtime = coeff.serial_s + coeff.cpu_s / cpu + coeff.memory_s / memory_gb
        if self.noise_fraction:
            jitter = self.rng.normal(0.0, self.noise_fraction, stream=f"runtime:{srr_id}")
            runtime *= max(0.5, 1.0 + jitter)
        return RunEstimate(
            srr_id=srr_id,
            reference=reference,
            cpu=cpu,
            memory_gb=memory_gb,
            runtime_s=runtime,
            output_size_bytes=coeff.output_bytes,
        )

    def runtime_seconds(self, srr_id: str, cpu: float = 2, memory_gb: float = 4) -> float:
        """Just the runtime, in (simulated) seconds."""
        return self.estimate(srr_id, cpu=cpu, memory_gb=memory_gb).runtime_s

    def output_size_bytes(self, srr_id: str) -> int:
        return self.coefficients(srr_id).output_bytes

