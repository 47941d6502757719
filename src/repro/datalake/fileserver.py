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
exist once on this node however many tables hold them.  The cached segments
of a dataset belong to the catalogue record they were cut for: once the
dataset is re-published under a new record they are rebuilt.
"""

from __future__ import annotations

import json
from repro.exceptions import DataLakeError, DatasetNotFound, NDNError
from repro.datalake.catalog import DatasetRecord
from repro.datalake.repo import DATA_PREFIX, DataLake
from repro.ndn.forwarder import Forwarder
from repro.ndn.name import Name
from repro.ndn.packet import Data, NackReason, WirePacket
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
        #: Dataset id -> (the record the segments were cut for, its payload,
        #: the segments encoded so far).
        self._segment_cache: dict[str, tuple[DatasetRecord, bytes, dict[int, WirePacket]]] = {}
        forwarder.attach_producer(DATA_PREFIX, self._handle)

    # -- request handling ------------------------------------------------------------

    def _handle(self, interest: WirePacket) -> "Data | WirePacket":
        try:
            reply = self._dispatch(interest)
        except (DatasetNotFound, DataLakeError, NDNError):
            self.requests_failed += 1
            return interest.nack(NackReason.NO_ROUTE)
        self.requests_served += 1
        return reply

    def _dispatch(self, interest: WirePacket) -> "Data | WirePacket":
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
            return self._segment(record, parse_segment(second))
        if second == "manifest":
            return self._make_data(name, record.manifest_bytes())
        raise DataLakeError(f"unrecognised data request {name}")

    def _segment(self, record: DatasetRecord, index: int) -> WirePacket:
        """Segment ``index`` of the dataset ``record`` describes, encoded on
        its first request.

        The dataset's payload is read on its first segment request, and
        every segment is cut from that same payload for as long as the
        catalogue holds ``record``; a re-published dataset has a new record,
        so its segments are cut afresh.  Only the encoded view is kept, so
        the Data object and its content slice are garbage once encoded.
        Replies are detached views, so no holder downstream can attach a
        decoded object to the cached one.
        """
        cached = self._segment_cache.get(record.dataset_id)
        if cached is None or cached[0] is not record:
            cached = self._segment_cache[record.dataset_id] = (
                record, self.datalake.read_bytes(record.dataset_id), {})
        _record, payload, segments = cached
        view = segments.get(index)
        if view is None:
            data = segment_data(
                record.content_name, payload, index,
                segment_size=self.segment_size, freshness_period=FRESHNESS_PERIOD,
            )
            view = segments[index] = WirePacket.of(data).detached_view()
        return view.detached_view()

    def _make_data(self, name: Name, payload: bytes) -> Data:
        return Data(name=name, content=payload, freshness_period=FRESHNESS_PERIOD)

    def stats(self) -> dict[str, float]:
        return {
            "requests_served": float(self.requests_served),
            "requests_failed": float(self.requests_failed),
            "cached_objects": float(len(self._segment_cache)),
        }
