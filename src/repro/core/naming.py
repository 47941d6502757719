"""The LIDC semantic naming scheme.

Computation, data and status requests all live under ``/ndn/k8s`` (paper
§III-C, §IV-A):

* ``/ndn/k8s/compute/<params>`` — a computation request whose final component
  encodes the application and its requirements, e.g.
  ``mem=4&cpu=6&app=BLAST&srr=SRR2931415&ref=HUMAN``;
* ``/ndn/k8s/data/<dataset>`` — dataset publication and retrieval;
* ``/ndn/k8s/status/<cluster>/<n>`` — status polling for job
  ``<cluster>-job-<n>``.  The first component below the prefix names the
  cluster that owns the job, so an access router that has found one job's
  owner steers the polls of every later job on that cluster straight there
  (see :class:`~repro.ndn.strategy.OwnerAffinityStrategy`).

This module converts between parameter dictionaries and those names, and
provides canonicalisation so that two requests with the same parameters in a
different order map to the same name (which is what makes result caching by
name possible).  Typed parsing and alias folding (``memory``, ``dataset``)
belong to the service plane's schema, reached through
:meth:`repro.core.spec.ComputeRequest.from_name`.
"""

from __future__ import annotations

import urllib.parse
from typing import Mapping

from repro.exceptions import InvalidComputeName
from repro.ndn.name import Name

__all__ = [
    "LIDC_ROOT",
    "COMPUTE_PREFIX",
    "DATA_PREFIX",
    "STATUS_PREFIX",
    "job_id",
    "compute_name",
    "parse_compute_name",
    "status_name",
    "parse_status_name",
    "data_name",
    "canonical_request_key",
]

LIDC_ROOT = Name("/ndn/k8s")
COMPUTE_PREFIX = LIDC_ROOT.append("compute")
DATA_PREFIX = LIDC_ROOT.append("data")
STATUS_PREFIX = LIDC_ROOT.append("status")

_RESERVED_CHARS = "&="


def _encode_params(params: Mapping[str, object]) -> str:
    """Encode a parameter mapping as the paper's ``k=v&k=v`` component.

    Keys are emitted in sorted order so the encoding is canonical.
    """
    if not params:
        raise InvalidComputeName("a compute request needs at least one parameter")
    parts = []
    for key in sorted(params):
        value = params[key]
        key_text = str(key)
        value_text = str(value)
        if any(ch in key_text for ch in _RESERVED_CHARS):
            raise InvalidComputeName(f"parameter key {key_text!r} contains a reserved character")
        parts.append(f"{key_text}={urllib.parse.quote(value_text, safe='')}")
    return "&".join(parts)


def _decode_params(component: str) -> dict[str, str]:
    """Decode a ``k=v&k=v`` component back into a dict."""
    if not component:
        raise InvalidComputeName("empty parameter component")
    params: dict[str, str] = {}
    for part in component.split("&"):
        if "=" not in part:
            raise InvalidComputeName(f"malformed parameter {part!r} (expected key=value)")
        key, _, value = part.partition("=")
        if not key:
            raise InvalidComputeName(f"malformed parameter {part!r} (empty key)")
        if key in params:
            raise InvalidComputeName(f"duplicate parameter {key!r}")
        params[key] = urllib.parse.unquote(value)
    return params


def compute_name(params: Mapping[str, object]) -> Name:
    """Build a ``/ndn/k8s/compute/<params>`` name."""
    return COMPUTE_PREFIX.append(_encode_params(params))


def parse_compute_name(name: "Name | str") -> dict[str, str]:
    """Parse a compute name back into its parameter dict."""
    name = Name(name)
    if not COMPUTE_PREFIX.is_prefix_of(name):
        raise InvalidComputeName(f"{name} is not under {COMPUTE_PREFIX}")
    if len(name) != len(COMPUTE_PREFIX) + 1:
        raise InvalidComputeName(
            f"{name} must have exactly one parameter component after {COMPUTE_PREFIX}"
        )
    return _decode_params(name.last().to_str())


#: Separates the owning cluster from the gateway's job counter in a job id.
_JOB_ID_SEPARATOR = "-job-"


def job_id(cluster: str, number: "int | str") -> str:
    """The id ``<cluster>-job-<n>`` of the ``number``-th job ``cluster`` admitted."""
    return f"{cluster}{_JOB_ID_SEPARATOR}{number}"


def status_name(job_id: str) -> Name:
    """Build the status name of ``job_id``.

    A gateway's job id ``<cluster>-job-<n>`` becomes
    ``/ndn/k8s/status/<cluster>/<n>``: the owner is a component of its own
    (and the name is a byte shorter than the flat ``/ndn/k8s/status/<job-id>``).
    Any other id keeps the flat form.  :func:`parse_status_name` inverts both.
    """
    if not job_id:
        raise InvalidComputeName("empty job id")
    cluster, separator, number = job_id.rpartition(_JOB_ID_SEPARATOR)
    if separator and cluster and number:
        return STATUS_PREFIX.append(cluster, number)
    return STATUS_PREFIX.append(job_id)


def parse_status_name(name: "Name | str") -> str:
    """Extract the job id from a status name (either form :func:`status_name` builds)."""
    name = Name(name)
    depth = len(STATUS_PREFIX)
    if not STATUS_PREFIX.is_prefix_of(name) or len(name) not in (depth + 1, depth + 2):
        raise InvalidComputeName(f"{name} is not a status name")
    if len(name) == depth + 1:
        return name[depth].to_str()
    return job_id(name[depth].to_str(), name[depth + 1].to_str())


def data_name(dataset_id: str) -> Name:
    """Build a ``/ndn/k8s/data/<dataset>`` name."""
    if not dataset_id:
        raise InvalidComputeName("empty dataset id")
    return DATA_PREFIX.append(dataset_id)


def canonical_request_key(params: Mapping[str, object]) -> str:
    """A canonical string key for a request — the basis of result caching.

    Resource amounts (cpu/mem) are excluded: two requests for the same
    application over the same datasets produce the same result regardless of
    the resources they were granted.
    """
    significant = {
        key: value
        for key, value in params.items()
        if key not in ("cpu", "mem", "memory", "req")
    }
    if not significant:
        significant = dict(params)
    return _encode_params(significant)
