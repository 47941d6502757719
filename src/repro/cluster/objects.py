"""API object metadata, labels and selectors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["ObjectMeta", "LabelSelector", "generate_name"]

_name_counter = itertools.count(1)


def generate_name(prefix: str) -> str:
    """Generate a unique object name from a prefix (``blast-`` → ``blast-17``)."""
    return f"{prefix}{next(_name_counter)}"


@dataclass
class ObjectMeta:
    """Metadata shared by every API object."""

    name: str
    namespace: str = "default"
    labels: dict[str, str] = field(default_factory=dict)
    #: Assigned by the API server when the object is created.
    uid: str = field(default="", init=False)
    creation_time: float = field(default=0.0, init=False)

    def key(self) -> tuple[str, str]:
        """The (namespace, name) key used by the API server."""
        return (self.namespace, self.name)


@dataclass(frozen=True)
class LabelSelector:
    """A label equality selector (the subset Kubernetes services mostly use)."""

    match_labels: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_dict(cls, labels: Mapping[str, str]) -> "LabelSelector":
        return cls(match_labels=tuple(sorted(labels.items())))

    def matches(self, meta: ObjectMeta) -> bool:
        return all(meta.labels.get(key) == value for key, value in self.match_labels)

    def as_dict(self) -> dict[str, str]:
        return dict(self.match_labels)
