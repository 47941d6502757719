"""A Kubernetes-equivalent cluster orchestrator, built for simulation.

LIDC uses Kubernetes for five things (paper §III-A): named service endpoints
resolved through cluster DNS, NodePort exposure of the gateway NFD, spawning
Jobs with CPU/memory requests, PVC-mounted storage for the data lake, and
horizontal scaling (here: a cluster's node count, and more clusters in the
overlay).  This package implements the mechanisms LIDC drives from scratch on
top of the simulation kernel, and nothing else:

* :mod:`repro.cluster.quantity` — ``4Gi`` / ``500m`` resource quantities;
* :mod:`repro.cluster.objects` — object metadata, labels and selectors;
* :mod:`repro.cluster.apiserver` — the API object store with watches;
* :mod:`repro.cluster.node` / :mod:`repro.cluster.kubelet` — nodes and the
  agent that runs pods on them;
* :mod:`repro.cluster.pod` — pod and container specifications and lifecycle;
* :mod:`repro.cluster.scheduler` — a predicates + priorities bin-packing
  scheduler;
* :mod:`repro.cluster.job` — the Job controller (the object LIDC's gateway
  creates for every computation request; one pod per Job);
* :mod:`repro.cluster.deployment` — single-replica Deployments for
  long-running services such as the gateway NFD and the file server;
* :mod:`repro.cluster.service` / :mod:`repro.cluster.dns` — Services
  (ClusterIP and NodePort) and cluster DNS;
* :mod:`repro.cluster.storage` — PersistentVolumes, PersistentVolumeClaims
  and an NFS-style provisioner backing the data lake;
* :mod:`repro.cluster.cluster` — the :class:`~repro.cluster.cluster.Cluster`
  facade wiring everything together.
"""

from repro.cluster.quantity import Quantity, parse_cpu, parse_memory
from repro.cluster.objects import ObjectMeta, LabelSelector
from repro.cluster.apiserver import ApiServer, WatchEvent, EventType
from repro.cluster.node import Node
from repro.cluster.pod import Container, Pod, PodPhase, PodSpec, ResourceRequirements
from repro.cluster.scheduler import Scheduler
from repro.cluster.kubelet import Kubelet
from repro.cluster.job import Job, JobController, JobStatus
from repro.cluster.deployment import Deployment, DeploymentController
from repro.cluster.service import Service, ServiceType, Endpoints
from repro.cluster.dns import ClusterDNS
from repro.cluster.storage import (
    NFSServer,
    PersistentVolume,
    PersistentVolumeClaim,
    StorageController,
)
from repro.cluster.cluster import Cluster, ClusterSpec

__all__ = [
    "Quantity",
    "parse_cpu",
    "parse_memory",
    "ObjectMeta",
    "LabelSelector",
    "ApiServer",
    "WatchEvent",
    "EventType",
    "Node",
    "Pod",
    "PodSpec",
    "PodPhase",
    "Container",
    "ResourceRequirements",
    "Scheduler",
    "Kubelet",
    "Job",
    "JobStatus",
    "JobController",
    "Deployment",
    "DeploymentController",
    "Service",
    "ServiceType",
    "Endpoints",
    "ClusterDNS",
    "PersistentVolume",
    "PersistentVolumeClaim",
    "StorageController",
    "NFSServer",
    "Cluster",
    "ClusterSpec",
]
