"""Exception hierarchy shared across the LIDC reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch reproduction-level failures without swallowing genuine
programming errors (``TypeError``, ``ValueError`` from third-party code, …).
The simulation kernel throws nothing into a process on its own: a process
only ever sees the exceptions of the events it waits on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for simulation-kernel errors."""


# ---------------------------------------------------------------------------
# NDN substrate
# ---------------------------------------------------------------------------


class NDNError(ReproError):
    """Base class for NDN-layer errors."""


class NameError_(NDNError):
    """Malformed NDN name or component."""


class TLVDecodeError(NDNError):
    """Wire decoding failed (truncated or malformed TLV)."""


class InterestTimeout(NDNError):
    """An expressed Interest was not satisfied within its lifetime."""

    def __init__(self, name: object, lifetime: float) -> None:
        super().__init__(f"interest {name} timed out after {lifetime}s")
        self.name = name
        self.lifetime = lifetime


class InterestNacked(NDNError):
    """An expressed Interest was answered with a network NACK."""

    def __init__(self, name: object, reason: str) -> None:
        super().__init__(f"interest {name} nacked: {reason}")
        self.name = name
        self.reason = reason


class VerificationError(NDNError):
    """Signature or digest verification failed."""


# ---------------------------------------------------------------------------
# Cluster orchestrator
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for cluster-orchestrator errors."""


class ObjectNotFound(ClusterError):
    """API object lookup failed."""

    def __init__(self, kind: str, name: str, namespace: str | None = None) -> None:
        where = f" in namespace {namespace!r}" if namespace else ""
        super().__init__(f"{kind} {name!r} not found{where}")
        self.kind = kind
        self.name = name
        self.namespace = namespace


class ObjectAlreadyExists(ClusterError):
    """An API object with the same key already exists."""


class QuantityParseError(ClusterError):
    """A Kubernetes-style resource quantity string could not be parsed."""


class StorageError(ClusterError):
    """PV / PVC provisioning or binding error."""


# ---------------------------------------------------------------------------
# Data lake
# ---------------------------------------------------------------------------


class DataLakeError(ReproError):
    """Base class for data-lake errors."""


class DatasetNotFound(DataLakeError):
    """The requested dataset is not present in the catalog."""


# ---------------------------------------------------------------------------
# Genomics workload
# ---------------------------------------------------------------------------


class GenomicsError(ReproError):
    """Base class for genomics workload errors."""


class UnknownAccession(GenomicsError):
    """An SRR accession is not present in the registry."""


# ---------------------------------------------------------------------------
# LIDC core
# ---------------------------------------------------------------------------


class LIDCError(ReproError):
    """Base class for LIDC-core errors."""


class InvalidComputeName(LIDCError):
    """A semantic compute name could not be parsed."""


class ValidationFailure(LIDCError):
    """An application-specific validator rejected the request."""


class UnknownApplication(LIDCError):
    """The requested application is not registered on the gateway."""


class JobNotFound(LIDCError):
    """Status request for an unknown job id."""


class PlacementError(LIDCError):
    """No cluster in the overlay can satisfy the request."""


class OverlayError(LIDCError):
    """Cluster overlay membership error."""


class ControllerUnavailable(LIDCError):
    """Raised when submitting to a failed central controller."""
