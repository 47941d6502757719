"""The cluster API server: a typed object store with watches.

Controllers (scheduler, job controller, kubelets, service endpoints) interact
with cluster state exclusively through this store, mirroring how Kubernetes
controllers work: they register watch callbacks and react to ADDED /
MODIFIED notifications.  Nothing deletes an object: a finished pod or job
stays in the store in its terminal phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Optional

from repro.exceptions import ObjectAlreadyExists, ObjectNotFound
from repro.cluster.objects import ObjectMeta

__all__ = ["EventType", "WatchEvent", "ApiServer"]


class EventType(str, Enum):
    """Watch notification types."""

    ADDED = "ADDED"
    MODIFIED = "MODIFIED"


@dataclass(frozen=True)
class WatchEvent:
    """A single watch notification."""

    type: EventType
    kind: str
    obj: Any


@dataclass
class _KindStore:
    objects: dict[tuple[str, str], Any] = field(default_factory=dict)
    watchers: list[Callable[[WatchEvent], None]] = field(default_factory=list)


class ApiServer:
    """In-memory API object store keyed by (kind, namespace, name)."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._stores: dict[str, _KindStore] = {}
        self._uid_counter = itertools.count(1)

    # -- object CRUD ------------------------------------------------------------

    def _store(self, kind: str) -> _KindStore:
        return self._stores.setdefault(kind, _KindStore())

    def create(self, kind: str, obj: Any) -> Any:
        """Store a new object; assigns uid and creation time."""
        meta: ObjectMeta = obj.metadata
        store = self._store(kind)
        if meta.key() in store.objects:
            raise ObjectAlreadyExists(f"{kind} {meta.namespace}/{meta.name} already exists")
        meta.uid = f"{kind.lower()}-{next(self._uid_counter)}"
        meta.creation_time = self._clock()
        store.objects[meta.key()] = obj
        self._notify(kind, EventType.ADDED, obj)
        return obj

    def get(self, kind: str, name: str, namespace: str = "default") -> Any:
        store = self._store(kind)
        try:
            return store.objects[(namespace, name)]
        except KeyError:
            raise ObjectNotFound(kind, name, namespace) from None

    def try_get(self, kind: str, name: str, namespace: str = "default") -> Optional[Any]:
        return self._store(kind).objects.get((namespace, name))

    def list(self, kind: str, namespace: Optional[str] = None,
             selector: Optional[Callable[[Any], bool]] = None) -> list[Any]:
        """List objects of ``kind``, optionally filtered by namespace and predicate."""
        objects: Iterable[Any] = self._store(kind).objects.values()
        if namespace is not None:
            objects = [obj for obj in objects if obj.metadata.namespace == namespace]
        if selector is not None:
            objects = [obj for obj in objects if selector(obj)]
        return list(objects)

    def touch(self, kind: str, obj: Any) -> Any:
        """Notify watchers that stored ``obj`` changed in place (objects are mutable here)."""
        meta: ObjectMeta = obj.metadata
        if meta.key() not in self._store(kind).objects:
            raise ObjectNotFound(kind, meta.name, meta.namespace)
        self._notify(kind, EventType.MODIFIED, obj)
        return obj

    # -- watches ------------------------------------------------------------------

    def watch(self, kind: str, callback: Callable[[WatchEvent], None],
              replay_existing: bool = True) -> None:
        """Subscribe to changes of ``kind``.

        When ``replay_existing`` is true the callback immediately receives an
        ``ADDED`` event for every object already stored (list+watch semantics).
        """
        store = self._store(kind)
        store.watchers.append(callback)
        if replay_existing:
            for obj in list(store.objects.values()):
                callback(WatchEvent(type=EventType.ADDED, kind=kind, obj=obj))

    def _notify(self, kind: str, event_type: EventType, obj: Any) -> None:
        event = WatchEvent(type=event_type, kind=kind, obj=obj)
        for watcher in list(self._store(kind).watchers):
            watcher(event)
