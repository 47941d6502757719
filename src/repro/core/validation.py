"""Application-specific validation (paper §IV-B).

"LIDC allows for application-specific validations.  These validations are
built into the system in a modular manner and can be managed separately for
each application."

Each application registers a validator, an object with one method,
``validate(request, datalake)``; the gateway runs the matching validator
before admitting a request.  The two applications the paper uses as
examples are implemented: Magic-BLAST (checks the SRR id) and a file
compression tool (needs a dataset but no SRR semantics).
"""

from __future__ import annotations

from typing import Optional

from repro.core.service import ValidationResult
from repro.core.spec import ComputeRequest
from repro.datalake.repo import DataLake
from repro.genomics.sra import SraRegistry, is_valid_srr_id

__all__ = [
    "ValidationResult",
    "BlastValidator",
    "CompressionValidator",
]


class BlastValidator:
    """Validator for the Magic-BLAST application.

    Checks that the request carries a syntactically valid SRR id, that the
    sample is known (to the registry or to the data lake) and that a
    reference database is named.
    """

    def __init__(self, registry: Optional[SraRegistry] = None) -> None:
        self.registry = registry if registry is not None else SraRegistry()

    def validate(self, request: ComputeRequest, datalake: Optional[DataLake] = None) -> ValidationResult:
        if not request.dataset:
            return ValidationResult(False, "BLAST requests must name an SRR id (srr=...)")
        if not is_valid_srr_id(request.dataset):
            return ValidationResult(False, f"malformed SRR id {request.dataset!r}")
        if request.dataset not in self.registry and (
            datalake is None or not datalake.has_dataset(request.dataset)
        ):
            return ValidationResult(False, f"unknown SRR id {request.dataset!r}")
        if not request.reference:
            return ValidationResult(False, "BLAST requests must name a reference database (ref=...)")
        return ValidationResult(True)


class CompressionValidator:
    """Validator for a generic file-compression application.

    Needs a dataset present in the data lake; has no SRR-id semantics, which is
    exactly the contrast the paper draws.  The ``level`` parameter is the
    COMPRESS schema's to check:
    :meth:`~repro.core.service.ServiceRegistry.validate` parses it
    (an integer in 1..9) before this validator runs.
    """

    def validate(self, request: ComputeRequest, datalake: Optional[DataLake] = None) -> ValidationResult:
        if not request.dataset:
            return ValidationResult(False, "compression requests must name a dataset (srr=... or dataset=...)")
        if datalake is not None and not datalake.has_dataset(request.dataset):
            return ValidationResult(False, f"dataset {request.dataset!r} is not in the data lake")
        return ValidationResult(True)
