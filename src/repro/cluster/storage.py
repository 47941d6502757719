"""Persistent storage: PVs, PVCs, storage classes and an NFS server.

The paper's testbed mounts an NFS server into MicroK8s through a PVC and
loads the genomics datasets onto it (paper §V-B).  Here the NFS server is an
in-memory object store keyed by path; a PVC bound to an NFS-backed PV exposes
read/write/stat operations against a sub-directory of that store.

Large synthetic objects can be stored either with real bytes (small tests) or
as *sized placeholders* (paper-scale datasets), so the data lake can reason
about multi-gigabyte files without allocating them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.exceptions import StorageError
from repro.cluster.apiserver import ApiServer, EventType, WatchEvent
from repro.cluster.objects import ObjectMeta, generate_name
from repro.cluster.quantity import parse_memory

__all__ = [
    "StoredObject",
    "NFSServer",
    "StorageClass",
    "PersistentVolume",
    "PersistentVolumeClaim",
    "StorageController",
]


@dataclass
class StoredObject:
    """A file-like object on the NFS server.

    ``payload`` holds real bytes for small objects; ``size_bytes`` is always
    authoritative (for placeholders it is the declared size).
    """

    path: str
    size_bytes: int
    payload: Optional[bytes] = None
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def is_placeholder(self) -> bool:
        return self.payload is None


class NFSServer:
    """A shared file store reachable from every node (the remote data lake)."""

    def __init__(self, name: str = "nfs", capacity: Union[str, int] = "1Ti") -> None:
        self.name = name
        self.capacity_bytes = parse_memory(capacity)
        self._objects: dict[str, StoredObject] = {}
        #: Running total of stored sizes, kept by write/overwrite/delete so
        #: the capacity check does not re-sum the store on every write.
        self._used_bytes = 0

    # -- writes -----------------------------------------------------------------

    def write(self, path: str, payload: "bytes | str", metadata: "dict[str, str] | None" = None) -> StoredObject:
        """Store real bytes under ``path``."""
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        obj = StoredObject(path=path, size_bytes=len(payload), payload=payload,
                           metadata=dict(metadata or {}))
        return self._store(obj)

    def write_placeholder(self, path: str, size_bytes: int,
                          metadata: "dict[str, str] | None" = None) -> StoredObject:
        """Store a sized placeholder (no payload) under ``path``."""
        if size_bytes < 0:
            raise StorageError(f"negative object size {size_bytes}")
        obj = StoredObject(path=path, size_bytes=size_bytes, payload=None,
                           metadata=dict(metadata or {}))
        return self._store(obj)

    def _store(self, obj: StoredObject) -> StoredObject:
        """Capacity-check ``obj`` and store it, replacing any object at its path."""
        replacing = self._objects.get(obj.path)
        used = self._used_bytes - (replacing.size_bytes if replacing else 0) + obj.size_bytes
        if used > self.capacity_bytes:
            raise StorageError(
                f"NFS server {self.name} full: {used} > {self.capacity_bytes}"
            )
        self._objects[obj.path] = obj
        self._used_bytes = used
        return obj

    # -- reads ----------------------------------------------------------------------

    def read(self, path: str) -> bytes:
        obj = self.stat(path)
        if obj.payload is None:
            raise StorageError(f"{path} is a sized placeholder with no payload")
        return obj.payload

    def stat(self, path: str) -> StoredObject:
        try:
            return self._objects[path]
        except KeyError:
            raise StorageError(f"no such object: {path}") from None

    def exists(self, path: str) -> bool:
        return path in self._objects

    def listdir(self, prefix: str = "") -> list[str]:
        return sorted(path for path in self._objects if path.startswith(prefix))

    def delete(self, path: str) -> None:
        if path not in self._objects:
            raise StorageError(f"no such object: {path}")
        self._used_bytes -= self._objects.pop(path).size_bytes

    def used_bytes(self) -> int:
        return self._used_bytes

    def object_count(self) -> int:
        return len(self._objects)


@dataclass
class StorageClass:
    """A provisioner configuration (``nfs`` is the one LIDC uses)."""

    name: str
    provisioner: str = "nfs"
    server: Optional[NFSServer] = None

    KIND = "StorageClass"

    @property
    def metadata(self) -> ObjectMeta:  # API-server compatibility
        return ObjectMeta(name=self.name)


@dataclass
class PersistentVolume:
    """A provisioned volume backed by a directory on an NFS server."""

    metadata: ObjectMeta
    capacity_bytes: int
    storage_class: str
    server: NFSServer
    base_path: str
    claim_ref: Optional[str] = None

    KIND = "PersistentVolume"

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def is_bound(self) -> bool:
        return self.claim_ref is not None


@dataclass
class PersistentVolumeClaim:
    """A claim for storage; once bound it exposes file operations."""

    metadata: ObjectMeta
    requested_bytes: int
    storage_class: str = "nfs"
    volume: Optional[PersistentVolume] = None
    phase: str = "Pending"  # Pending | Bound

    KIND = "PersistentVolumeClaim"

    @property
    def name(self) -> str:
        return self.metadata.name

    @property
    def is_bound(self) -> bool:
        return self.phase == "Bound" and self.volume is not None

    # -- file operations through the bound volume ------------------------------------

    def _resolve(self, path: str) -> tuple[NFSServer, str]:
        if not self.is_bound:
            raise StorageError(f"PVC {self.name} is not bound")
        assert self.volume is not None
        return self.volume.server, f"{self.volume.base_path}/{path.lstrip('/')}"

    def write(self, path: str, payload: "bytes | str", metadata: "dict[str, str] | None" = None) -> StoredObject:
        server, full_path = self._resolve(path)
        return server.write(full_path, payload, metadata)

    def write_placeholder(self, path: str, size_bytes: int,
                          metadata: "dict[str, str] | None" = None) -> StoredObject:
        server, full_path = self._resolve(path)
        return server.write_placeholder(full_path, size_bytes, metadata)

    def read(self, path: str) -> bytes:
        server, full_path = self._resolve(path)
        return server.read(full_path)

    def stat(self, path: str) -> StoredObject:
        server, full_path = self._resolve(path)
        return server.stat(full_path)

    def exists(self, path: str) -> bool:
        if not self.is_bound:
            return False
        server, full_path = self._resolve(path)
        return server.exists(full_path)

    def listdir(self, prefix: str = "") -> list[str]:
        server, base = self._resolve(prefix)
        stripped = []
        root = f"{self.volume.base_path}/"  # type: ignore[union-attr]
        for path in server.listdir(base):
            stripped.append(path[len(root):] if path.startswith(root) else path)
        return stripped

    def used_bytes(self) -> int:
        if not self.is_bound:
            return 0
        assert self.volume is not None
        root = f"{self.volume.base_path}/"
        return sum(
            self.volume.server.stat(path).size_bytes
            for path in self.volume.server.listdir(root)
        )


class StorageController:
    """Dynamic provisioner: binds PVCs to freshly provisioned NFS-backed PVs."""

    def __init__(self, api: ApiServer, default_server: Optional[NFSServer] = None) -> None:
        self.api = api
        self.default_server = default_server or NFSServer()
        self._classes: dict[str, StorageClass] = {
            "nfs": StorageClass(name="nfs", provisioner="nfs", server=self.default_server)
        }
        self.volumes_provisioned = 0
        api.watch(PersistentVolumeClaim.KIND, self._on_pvc_event, replay_existing=True)

    def add_storage_class(self, storage_class: StorageClass) -> None:
        self._classes[storage_class.name] = storage_class

    def create_pvc(self, name: str, size: Union[str, int], storage_class: str = "nfs",
                   namespace: str = "ndnk8s") -> PersistentVolumeClaim:
        """Create a claim; the controller binds it immediately (dynamic provisioning)."""
        pvc = PersistentVolumeClaim(
            metadata=ObjectMeta(name=name, namespace=namespace),
            requested_bytes=parse_memory(size),
            storage_class=storage_class,
        )
        self.api.create(PersistentVolumeClaim.KIND, pvc)
        return pvc

    def _on_pvc_event(self, event: WatchEvent) -> None:
        if event.type != EventType.ADDED:
            return
        self._bind(event.obj)

    def _bind(self, pvc: PersistentVolumeClaim) -> None:
        if pvc.is_bound:
            return
        storage_class = self._classes.get(pvc.storage_class)
        if storage_class is None or storage_class.server is None:
            raise StorageError(f"unknown storage class {pvc.storage_class!r}")
        pv = PersistentVolume(
            metadata=ObjectMeta(name=generate_name(f"pv-{pvc.name}-")),
            capacity_bytes=pvc.requested_bytes,
            storage_class=pvc.storage_class,
            server=storage_class.server,
            base_path=f"/exports/{pvc.metadata.namespace}/{pvc.name}",
            claim_ref=pvc.name,
        )
        self.api.create(PersistentVolume.KIND, pv)
        self.volumes_provisioned += 1
        pvc.volume = pv
        pvc.phase = "Bound"
        self.api.touch(PersistentVolumeClaim.KIND, pvc)
