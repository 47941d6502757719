"""Named Data Networking (NDN) substrate.

This package implements, from scratch, the NDN primitives LIDC relies on:

* hierarchical :class:`~repro.ndn.name.Name` objects with component-wise
  operations and longest-prefix semantics;
* :class:`~repro.ndn.packet.Interest` and :class:`~repro.ndn.packet.Data`
  packets with a TLV wire format (:mod:`repro.ndn.tlv`); every Data carries
  a DigestSha256 signature, computed once when it is first encoded;
* :class:`~repro.ndn.packet.WirePacket`, the one packet type the forwarding
  plane handles: a lazy view over an encoded Interest, Data or Nack (a
  Nack exists only in this form);
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
from repro.ndn.packet import Data, Interest, NackReason, WirePacket
from repro.ndn.cs import ContentStore
from repro.ndn.pit import PendingInterestTable, PitEntry
from repro.ndn.fib import Fib, FibEntry
from repro.ndn.face import Face, LocalFace, NetworkFace, connect
from repro.ndn.strategy import (
    BestRouteStrategy,
    LoadBalanceStrategy,
    Strategy,
)
from repro.ndn.forwarder import Forwarder
from repro.ndn.shard import ShardedForwarder, ShardFace
from repro.ndn.routing import PrefixAnnouncement, RoutingDaemon
from repro.ndn.client import Consumer
from repro.ndn.segmentation import reassemble

__all__ = [
    "Name",
    "Component",
    "Interest",
    "Data",
    "NackReason",
    "WirePacket",
    "ContentStore",
    "PendingInterestTable",
    "PitEntry",
    "Fib",
    "FibEntry",
    "Face",
    "LocalFace",
    "NetworkFace",
    "connect",
    "Strategy",
    "BestRouteStrategy",
    "LoadBalanceStrategy",
    "Forwarder",
    "RoutingDaemon",
    "PrefixAnnouncement",
    "Consumer",
    "reassemble",
]
