"""Dataset records and the data-lake catalogue."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.exceptions import DatasetNotFound
from repro.ndn.name import Name

__all__ = ["DatasetKind", "DatasetRecord", "DataCatalog"]


class DatasetKind(str, Enum):
    """What a stored dataset is."""

    SRA_SAMPLE = "sra-sample"
    REFERENCE = "reference"
    RESULT = "result"
    INTERMEDIATE = "intermediate"
    OTHER = "other"


@dataclass
class DatasetRecord:
    """Metadata for one dataset published in the lake."""

    dataset_id: str
    kind: DatasetKind
    size_bytes: int
    storage_path: str
    content_name: Name
    description: str = ""
    metadata: dict[str, str] = field(default_factory=dict)
    published_at: float = 0.0
    has_payload: bool = False

    def manifest(self) -> dict:
        """The JSON-serialisable manifest served for this dataset."""
        return {
            "dataset_id": self.dataset_id,
            "kind": self.kind.value,
            "size_bytes": self.size_bytes,
            "content_name": str(self.content_name),
            "description": self.description,
            "metadata": dict(self.metadata),
            "published_at": self.published_at,
            "has_payload": self.has_payload,
        }

    def manifest_bytes(self) -> bytes:
        return json.dumps(self.manifest(), sort_keys=True).encode("utf-8")


class DataCatalog:
    """The catalogue of datasets currently available in a data lake."""

    def __init__(self) -> None:
        self._records: dict[str, DatasetRecord] = {}

    def register(self, record: DatasetRecord) -> DatasetRecord:
        self._records[record.dataset_id] = record
        return record

    def get(self, dataset_id: str) -> DatasetRecord:
        try:
            return self._records[dataset_id]
        except KeyError:
            raise DatasetNotFound(f"dataset {dataset_id!r} is not in the catalog") from None

    def try_get(self, dataset_id: str) -> Optional[DatasetRecord]:
        return self._records.get(dataset_id)

    def __contains__(self, dataset_id: str) -> bool:
        return dataset_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self, kind: Optional[DatasetKind] = None) -> list[DatasetRecord]:
        records = sorted(self._records.values(), key=lambda rec: rec.dataset_id)
        if kind is not None:
            records = [rec for rec in records if rec.kind == kind]
        return records

    def total_bytes(self) -> int:
        return sum(rec.size_bytes for rec in self._records.values())

    def listing(self) -> dict:
        """A JSON-serialisable listing of the whole catalogue."""
        return {
            "datasets": [rec.manifest() for rec in self.records()],
            "count": len(self),
            "total_bytes": self.total_bytes(),
        }
