"""Persistent storage: PVs, PVCs and an NFS server.

The paper's testbed mounts an NFS server into MicroK8s through a PVC and
loads the genomics datasets onto it (paper §V-B).  Here the NFS server is an
in-memory object store keyed by path; a PVC bound to an NFS-backed PV exposes
read/write operations against a sub-directory of that store.

Large synthetic objects can be stored either with real bytes (small tests) or
as *sized placeholders* (paper-scale datasets), so the data lake can reason
about multi-gigabyte files without allocating them.

A claim asks for no size and a volume has none: the NFS export's
:data:`NFS_CAPACITY_BYTES` (1 TiB) is the only bound on what is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import StorageError
from repro.cluster.apiserver import ApiServer, EventType, WatchEvent
from repro.cluster.objects import ObjectMeta, generate_name
from repro.cluster.quantity import parse_memory

__all__ = [
    "StoredObject",
    "NFSServer",
    "PersistentVolume",
    "PersistentVolumeClaim",
    "StorageController",
]

#: Size of every cluster's NFS export.
NFS_CAPACITY_BYTES = parse_memory("1Ti")


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


class NFSServer:
    """A shared file store reachable from every node (the remote data lake)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.capacity_bytes = NFS_CAPACITY_BYTES
        self._objects: dict[str, StoredObject] = {}
        #: Running total of stored sizes, kept by write and overwrite so the
        #: capacity check does not re-sum the store on every write.
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

    def used_bytes(self) -> int:
        return self._used_bytes

    def object_count(self) -> int:
        return len(self._objects)


@dataclass
class PersistentVolume:
    """A provisioned volume backed by a directory on an NFS server."""

    metadata: ObjectMeta
    server: NFSServer
    base_path: str

    KIND = "PersistentVolume"


@dataclass
class PersistentVolumeClaim:
    """A claim for storage; once bound it exposes file operations."""

    metadata: ObjectMeta
    #: Set when the storage controller binds the claim.
    volume: Optional[PersistentVolume] = field(default=None, init=False)
    phase: str = field(default="Pending", init=False)  # Pending | Bound

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


class StorageController:
    """Dynamic provisioner: binds PVCs to freshly provisioned NFS-backed PVs."""

    def __init__(self, api: ApiServer, server: NFSServer) -> None:
        self.api = api
        self.server = server
        self.volumes_provisioned = 0
        api.watch(PersistentVolumeClaim.KIND, self._on_pvc_event, replay_existing=True)

    def create_pvc(self, name: str) -> PersistentVolumeClaim:
        """Create a claim; the controller binds it immediately (dynamic provisioning)."""
        pvc = PersistentVolumeClaim(metadata=ObjectMeta(name=name, namespace="ndnk8s"))
        self.api.create(PersistentVolumeClaim.KIND, pvc)
        return pvc

    def _on_pvc_event(self, event: WatchEvent) -> None:
        if event.type != EventType.ADDED:
            return
        self._bind(event.obj)

    def _bind(self, pvc: PersistentVolumeClaim) -> None:
        pv = PersistentVolume(
            metadata=ObjectMeta(name=generate_name(f"pv-{pvc.name}-")),
            server=self.server,
            base_path=f"/exports/{pvc.metadata.namespace}/{pvc.name}",
        )
        self.api.create(PersistentVolume.KIND, pv)
        self.volumes_provisioned += 1
        pvc.volume = pv
        pvc.phase = "Bound"
        self.api.touch(PersistentVolumeClaim.KIND, pvc)
