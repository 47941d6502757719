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

A segment is encoded once, the first time it is asked for, and kept as a
bytes-only :class:`~repro.ndn.packet.WirePacket`; every later request is
answered with a detached view of that one buffer, so the segment's bytes
exist once on this node however many tables hold them.
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
from repro.ndn.segmentation import DEFAULT_SEGMENT_SIZE, parse_segment, segment_data
from repro.sim.engine import Environment

__all__ = ["FileServer"]

CATALOG_COMPONENT = "_catalog"
#: Freshness of every manifest, segment and catalogue reply, in seconds.
FRESHNESS_PERIOD = 60.0


class FileServer:
    """NDN producer serving a :class:`~repro.datalake.repo.DataLake`.

    ``requests_served`` counts the requests answered with Data and
    ``requests_failed`` those refused with a Nack; together they count every
    request that reached the server.
    """

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
        self._segment_cache: dict[str, tuple[bytes, dict[int, WirePacket]]] = {}
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
            reply = self._dispatch(interest)
        except (DatasetNotFound, DataLakeError, NDNError):
            self.requests_failed += 1
            return interest.nack(NackReason.NO_ROUTE)
        self.requests_served += 1
        return reply

    def _dispatch(self, interest: InterestLike) -> "Data | WirePacket":
        name = interest.name
        suffix = name.suffix(len(DATA_PREFIX))
        if len(suffix) == 0:
            raise DataLakeError("bare data-prefix request")
        first = suffix[0].to_str()

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
            return self._segment(dataset_id, parse_segment(second))
        if second == "manifest":
            return self._make_data(name, record.manifest_bytes())
        raise DataLakeError(f"unrecognised data request {name}")

    def _segment(self, dataset_id: str, index: int) -> WirePacket:
        """Segment ``index`` of a dataset, encoded on its first request.

        The dataset's payload is read on its first segment request, and
        every segment is cut from that same payload until :meth:`invalidate`.
        Only the encoded view is kept, so the Data object and its content
        slice are garbage once encoded.  Replies are detached views, so no
        holder downstream can attach a decoded object to the cached one.
        """
        cached = self._segment_cache.get(dataset_id)
        if cached is None:
            cached = self._segment_cache[dataset_id] = (self.datalake.read_bytes(dataset_id), {})
        payload, segments = cached
        view = segments.get(index)
        if view is None:
            data = segment_data(
                self.datalake.content_name(dataset_id), payload, index,
                segment_size=self.segment_size, freshness_period=FRESHNESS_PERIOD,
            )
            view = segments[index] = WirePacket.of(data).detached_view()
        return view.detached_view()

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
