"""Named Data Networking (NDN) substrate.

This package implements, from scratch, the NDN primitives LIDC relies on:

* hierarchical :class:`~repro.ndn.name.Name` objects with component-wise
  operations and longest-prefix semantics;
* :class:`~repro.ndn.packet.Interest`, :class:`~repro.ndn.packet.Data` and
  :class:`~repro.ndn.packet.Nack` packets with a TLV wire format
  (:mod:`repro.ndn.tlv`) and HMAC/digest signatures
  (:mod:`repro.ndn.security`);
* the three forwarder tables — Content Store (:mod:`repro.ndn.cs`), Pending
  Interest Table (:mod:`repro.ndn.pit`) and Forwarding Information Base
  (:mod:`repro.ndn.fib`);
* faces and channels (:mod:`repro.ndn.face`), forwarding strategies
  (:mod:`repro.ndn.strategy`) and the forwarder itself
  (:mod:`repro.ndn.forwarder`), an NFD equivalent;
* a prefix-advertisement routing layer (:mod:`repro.ndn.routing`) in the
  spirit of NLSR;
* consumer/producer helpers (:mod:`repro.ndn.client`) and content
  segmentation (:mod:`repro.ndn.segmentation`).
"""

from repro.ndn.name import Component, Name
from repro.ndn.packet import Data, Interest, Nack, NackReason, WirePacket
from repro.ndn.security import DigestSigner, HmacSigner, KeyChain, sha256_digest
from repro.ndn.cs import ContentStore
from repro.ndn.pit import PendingInterestTable, PitEntry
from repro.ndn.fib import Fib, FibEntry, NameTree
from repro.ndn.face import Face, FaceStats, LocalFace, NetworkFace, connect
from repro.ndn.strategy import (
    BestRouteStrategy,
    LoadBalanceStrategy,
    MulticastStrategy,
    Strategy,
)
from repro.ndn.forwarder import Forwarder
from repro.ndn.shard import ShardedForwarder, ShardFace, forwarder_for_node
from repro.ndn.routing import PrefixAnnouncement, RoutingDaemon
from repro.ndn.client import Consumer, Producer
from repro.ndn.segmentation import reassemble, segment_content

__all__ = [
    "Name",
    "Component",
    "Interest",
    "Data",
    "Nack",
    "NackReason",
    "WirePacket",
    "KeyChain",
    "DigestSigner",
    "HmacSigner",
    "sha256_digest",
    "ContentStore",
    "PendingInterestTable",
    "PitEntry",
    "Fib",
    "FibEntry",
    "NameTree",
    "Face",
    "FaceStats",
    "LocalFace",
    "NetworkFace",
    "connect",
    "Strategy",
    "BestRouteStrategy",
    "MulticastStrategy",
    "LoadBalanceStrategy",
    "Forwarder",
    "RoutingDaemon",
    "PrefixAnnouncement",
    "Consumer",
    "Producer",
    "segment_content",
    "reassemble",
]
