"""The data lake: PVC-backed named storage with a catalogue.

The lake stores two classes of objects:

* *materialised* datasets (real bytes): synthetic genomes, BLAST outputs of
  small runs, manifests — these are retrievable over NDN segment by segment;
* *placeholder* datasets (declared size only): the paper-scale reference
  database and SRA samples, for which only manifests travel over the network
  while the simulated transfer time is derived from the declared size.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.exceptions import DataLakeError, DatasetNotFound
from repro.cluster.storage import PersistentVolumeClaim
from repro.datalake.catalog import DataCatalog, DatasetKind, DatasetRecord
from repro.ndn.name import Name

__all__ = ["DataLake", "DATA_PREFIX"]

#: The namespace the paper uses for data retrieval.
DATA_PREFIX = Name("/ndn/k8s/data")


class DataLake:
    """A named data lake backed by a PVC."""

    def __init__(
        self,
        pvc: PersistentVolumeClaim,
        name: str = "datalake",
        clock=None,
    ) -> None:
        self.pvc = pvc
        self.name = name
        self.catalog = DataCatalog()
        self._clock = clock or (lambda: 0.0)
        self.publish_count = 0

    # -- naming -----------------------------------------------------------------

    def content_name(self, dataset_id: str) -> Name:
        """The NDN name under which a dataset is served."""
        return DATA_PREFIX.append(dataset_id)

    # -- publication ----------------------------------------------------------------

    def publish_bytes(
        self,
        dataset_id: str,
        payload: "bytes | str",
        kind: "DatasetKind | str" = DatasetKind.OTHER,
        description: str = "",
        metadata: "dict[str, str] | None" = None,
    ) -> DatasetRecord:
        """Publish a materialised dataset (real bytes stored on the PVC)."""
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        path = f"datasets/{dataset_id}"
        self.pvc.write(path, payload, metadata={"dataset_id": dataset_id})
        record = DatasetRecord(
            dataset_id=dataset_id,
            kind=DatasetKind(kind),
            size_bytes=len(payload),
            storage_path=path,
            content_name=self.content_name(dataset_id),
            description=description,
            metadata=dict(metadata or {}),
            published_at=self._clock(),
            has_payload=True,
        )
        self.catalog.register(record)
        self.publish_count += 1
        return record

    def publish_placeholder(
        self,
        dataset_id: str,
        size_bytes: int,
        kind: "DatasetKind | str" = DatasetKind.OTHER,
        description: str = "",
        metadata: "dict[str, str] | None" = None,
    ) -> DatasetRecord:
        """Publish a paper-scale dataset by declared size only."""
        path = f"datasets/{dataset_id}"
        self.pvc.write_placeholder(path, size_bytes, metadata={"dataset_id": dataset_id})
        record = DatasetRecord(
            dataset_id=dataset_id,
            kind=DatasetKind(kind),
            size_bytes=size_bytes,
            storage_path=path,
            content_name=self.content_name(dataset_id),
            description=description,
            metadata=dict(metadata or {}),
            published_at=self._clock(),
            has_payload=False,
        )
        self.catalog.register(record)
        self.publish_count += 1
        return record

    # -- retrieval -------------------------------------------------------------------

    def get_record(self, dataset_id: str) -> DatasetRecord:
        return self.catalog.get(dataset_id)

    def has_dataset(self, dataset_id: str) -> bool:
        return dataset_id in self.catalog

    def read_bytes(self, dataset_id: str) -> bytes:
        """Read a materialised dataset's payload."""
        record = self.catalog.get(dataset_id)
        if not record.has_payload:
            raise DataLakeError(
                f"dataset {dataset_id!r} is a sized placeholder; only its manifest is retrievable"
            )
        return self.pvc.read(record.storage_path)

    # -- results convenience ------------------------------------------------------------

    def publish_result(
        self,
        result_id: str,
        payload: Optional[Union[bytes, str]] = None,
        size_bytes: Optional[int] = None,
        source_job: str = "",
        metadata: "dict[str, str] | None" = None,
    ) -> DatasetRecord:
        """Publish a computation result (bytes when available, size otherwise)."""
        meta = {"source_job": source_job, **(metadata or {})}
        if payload is not None:
            return self.publish_bytes(
                result_id, payload, kind=DatasetKind.RESULT,
                description=f"result of job {source_job}", metadata=meta,
            )
        if size_bytes is None:
            raise DataLakeError("publish_result needs either payload bytes or a size")
        return self.publish_placeholder(
            result_id, size_bytes, kind=DatasetKind.RESULT,
            description=f"result of job {source_job}", metadata=meta,
        )
