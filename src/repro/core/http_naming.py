"""HTTP(S)-style naming of computations (paper §II).

"Similarly, HTTP(s)-based naming of computational jobs can also match them to
appropriate endpoints."  LIDC's contribution is the *semantic naming*, not NDN
specifically; this module demonstrates that claim by providing a lossless
mapping between :class:`~repro.core.spec.ComputeRequest` objects and HTTP
URLs / request descriptions, plus a tiny HTTP-style facade over a gateway so a
RESTful client can drive the same admission path.
"""

from __future__ import annotations

import json
import urllib.parse
from dataclasses import dataclass, field
from typing import Optional

from repro.core import naming
from repro.core.gateway import Gateway
from repro.core.spec import ComputeRequest
from repro.exceptions import InvalidComputeName, ValidationFailure

__all__ = ["HttpRequest", "HttpResponse", "request_to_url", "url_to_request", "HttpGatewayFacade"]

#: Path prefixes mirroring the NDN namespaces.
COMPUTE_PATH = "/ndn/k8s/compute"
STATUS_PATH = "/ndn/k8s/status"
DATA_PATH = "/ndn/k8s/data"


@dataclass(frozen=True)
class HttpRequest:
    """A minimal HTTP request description (method, path, query, body)."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def url(self) -> str:
        query = ("?" + urllib.parse.urlencode(sorted(self.query.items()))) if self.query else ""
        return f"{self.path}{query}"


@dataclass(frozen=True)
class HttpResponse:
    """A minimal HTTP response description."""

    status: int
    body: bytes = b""

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8")) if self.body else {}

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


#: Scheme and host of every compute URL :func:`request_to_url` builds.
BASE_URL = "https://lidc.example.org"


def request_to_url(request: ComputeRequest) -> str:
    """Encode a compute request as an HTTPS URL.

    The query string carries exactly the parameters the NDN name would carry,
    so the two naming schemes are interchangeable.
    """
    params = request.to_params()
    query = urllib.parse.urlencode(sorted(params.items()))
    return f"{BASE_URL}{COMPUTE_PATH}?{query}"


def url_to_request(url: str) -> ComputeRequest:
    """Decode an HTTPS compute URL back into a :class:`ComputeRequest`."""
    parsed = urllib.parse.urlparse(url)
    if not parsed.path.endswith(COMPUTE_PATH.lstrip("/")) and parsed.path != COMPUTE_PATH:
        raise InvalidComputeName(f"{url!r} is not a compute URL (path {parsed.path!r})")
    pairs = urllib.parse.parse_qsl(parsed.query, keep_blank_values=True)
    if not pairs:
        raise InvalidComputeName(f"{url!r} carries no computation parameters")
    params: dict[str, str] = {}
    for key, value in pairs:
        if key in params:
            raise InvalidComputeName(f"duplicate query parameter {key!r}")
        params[key] = value
    return ComputeRequest.from_params(params)


class HttpGatewayFacade:
    """An HTTP-style facade over an LIDC gateway.

    Routes:

    * ``POST /ndn/k8s/compute?app=...&cpu=...`` — submit a computation;
      202 with ``{"job_id", "status_url"}`` on success, 400 on validation
      errors, 503 when the cluster has no capacity.
    * ``GET /ndn/k8s/status/<cluster>/<n>`` — job status, the same document
      an NDN status poll returns; 404 for unknown jobs.
    * ``GET /ndn/k8s/data/<dataset>`` — dataset manifest; 404 when absent.
    """

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self.requests_handled = 0

    # -- dispatch -----------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one HTTP request to the gateway."""
        self.requests_handled += 1
        path = request.path.rstrip("/")
        if request.method.upper() == "POST" and path == COMPUTE_PATH:
            return self._submit(request)
        if request.method.upper() == "GET" and path.startswith(STATUS_PATH + "/"):
            return self._status(path)
        if request.method.upper() == "GET" and path.startswith(DATA_PATH + "/"):
            return self._dataset(path[len(DATA_PATH) + 1:])
        return self._json(404, {"error": f"no route for {request.method} {request.path}"})

    # -- handlers ------------------------------------------------------------------------

    def _submit(self, request: HttpRequest) -> HttpResponse:
        try:
            compute_request = ComputeRequest.from_params(dict(request.query))
        except (InvalidComputeName, ValueError) as exc:
            return self._json(400, {"error": f"malformed request: {exc}"})
        if self.gateway.services.try_get(compute_request.app) is None:
            return self._json(400, {"error": f"unknown application {compute_request.app!r}"})
        validation = self.gateway.services.validate(compute_request, self.gateway.datalake)
        if not validation.ok:
            return self._json(400, {"error": validation.message})
        if not self.gateway.can_fit(compute_request):
            return self._json(503, {"error": "insufficient capacity on this cluster"})
        try:
            record = self.gateway.submit_local(compute_request, validate=False)
        except ValidationFailure as exc:  # pragma: no cover - validated above
            return self._json(400, {"error": str(exc)})
        return self._json(202, {
            "job_id": record.job_id,
            "status_url": str(naming.status_name(record.job_id)),
            "cluster": record.cluster,
            "equivalent_ndn_name": str(compute_request.to_name()),
        })

    def _status(self, path: str) -> HttpResponse:
        try:
            job_id = naming.parse_status_name(path)
        except InvalidComputeName as exc:
            return self._json(404, {"error": str(exc)})
        record = self.gateway.tracker.try_get(job_id)
        if record is None:
            return self._json(404, {"error": f"unknown job id {job_id!r}"})
        self.gateway._refresh_state(record)
        return self._json(200, record.status_payload())

    def _dataset(self, dataset_id: str) -> HttpResponse:
        if not self.gateway.datalake.has_dataset(dataset_id):
            return self._json(404, {"error": f"unknown dataset {dataset_id!r}"})
        return HttpResponse(status=200, body=self.gateway.datalake.read_manifest(dataset_id))

    # -- helpers --------------------------------------------------------------------------

    @staticmethod
    def _json(status: int, payload: dict) -> HttpResponse:
        return HttpResponse(status=status, body=json.dumps(payload, sort_keys=True).encode("utf-8"))
