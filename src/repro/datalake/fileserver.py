"""The file server: serves the data lake's contents over NDN.

Paper §III-C: "This router serves as a gateway to various internal
applications, including a data lake (which serves data under '/ndn/k8s/data')
and a file server that provides Genomics files."

The file server is an NDN producer attached to a forwarder (normally the
cluster's data-lake NFD).  It answers three request shapes:

* ``/ndn/k8s/data/<dataset>`` — the dataset manifest (JSON);
* ``/ndn/k8s/data/<dataset>/seg=<n>`` — one segment of a materialised
  dataset's payload;
* ``/ndn/k8s/data/_catalog`` — the catalogue listing.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.exceptions import DataLakeError, DatasetNotFound, NDNError
from repro.datalake.repo import DATA_PREFIX, DataLake
from repro.ndn.client import Producer
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, InterestLike, Nack, NackReason, WirePacket
from repro.ndn.segmentation import DEFAULT_SEGMENT_SIZE, parse_segment, segment_content
from repro.sim.engine import Environment

__all__ = ["FileServer"]

CATALOG_COMPONENT = "_catalog"
#: Freshness of every manifest, segment and catalogue reply, in seconds.
FRESHNESS_PERIOD = 60.0


class FileServer:
    """NDN producer serving a :class:`~repro.datalake.repo.DataLake`."""

    def __init__(
        self,
        env: Environment,
        forwarder: Forwarder,
        datalake: DataLake,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> None:
        self.env = env
        self.datalake = datalake
        self.segment_size = segment_size
        self.requests_served = 0
        self.requests_failed = 0
        self._segment_cache: dict[str, list[Data]] = {}
        self.producer = Producer(
            env,
            forwarder,
            prefix=DATA_PREFIX,
            handler=self._handle,
            name=f"fileserver:{datalake.name}",
            freshness_period=FRESHNESS_PERIOD,
        )

    # -- request handling ------------------------------------------------------------

    def _handle(self, interest: InterestLike) -> "Data | Nack | WirePacket":
        try:
            return self._dispatch(interest)
        except (DatasetNotFound, DataLakeError, NDNError):
            self.requests_failed += 1
            return interest.nack(NackReason.NO_ROUTE)

    def _dispatch(self, interest: InterestLike) -> Data:
        name = interest.name
        suffix = name.suffix(len(DATA_PREFIX))
        if len(suffix) == 0:
            raise DataLakeError("bare data-prefix request")
        first = suffix[0].to_str()
        self.requests_served += 1

        if first == CATALOG_COMPONENT:
            return self._make_data(name, json.dumps(self.datalake.catalog.listing()).encode("utf-8"))

        dataset_id = first
        record = self.datalake.get_record(dataset_id)

        if len(suffix) == 1:
            # Manifest request.
            return self._make_data(name, record.manifest_bytes())

        if len(suffix) > 2:
            raise DataLakeError(f"unrecognised data request {name}")
        second = suffix[1].to_str()
        if second.startswith("seg="):
            index = parse_segment(second)
            segments = self._segments_for(dataset_id)
            if index >= len(segments):
                raise DataLakeError(f"segment {index} out of range for {dataset_id}")
            return segments[index]
        if second == "manifest":
            return self._make_data(name, record.manifest_bytes())
        raise DataLakeError(f"unrecognised data request {name}")

    def _segments_for(self, dataset_id: str) -> list[Data]:
        if dataset_id not in self._segment_cache:
            payload = self.datalake.read_bytes(dataset_id)
            base = self.datalake.content_name(dataset_id)
            self._segment_cache[dataset_id] = segment_content(
                base, payload, segment_size=self.segment_size, freshness_period=FRESHNESS_PERIOD,
            )
        return self._segment_cache[dataset_id]

    def _make_data(self, name: Name, payload: bytes) -> Data:
        return Data(name=name, content=payload, freshness_period=FRESHNESS_PERIOD)

    # -- cache maintenance ----------------------------------------------------------------

    def invalidate(self, dataset_id: Optional[str] = None) -> None:
        """Drop cached segments (after re-publication of a dataset)."""
        if dataset_id is None:
            self._segment_cache.clear()
        else:
            self._segment_cache.pop(dataset_id, None)

    def stats(self) -> dict[str, float]:
        return {
            "requests_served": float(self.requests_served),
            "requests_failed": float(self.requests_failed),
            "cached_objects": float(len(self._segment_cache)),
        }
