"""Wide-area links: propagation latency, bandwidth and serialisation time.

LIDC's evaluation ran on GCP VMs; here each wide-area hop between clusters,
data lakes and clients is a :class:`Link` whose propagation latency
(seconds) and bandwidth (bytes/second) give the per-packet transfer delay
of the NDN face riding it.  Which cluster is "nearest" is not computed
from these numbers: the overlay's routing layer announces prefixes over
the faces, and the forwarding strategies pick among the resulting FIB
next hops by cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import SimulationError

__all__ = ["Link"]


@dataclass(frozen=True)
class Link:
    """A bidirectional link with propagation latency and bandwidth.

    The latency is a finite number of seconds, zero or more.  The bandwidth
    is zero or more bytes per second, and may be infinite; zero means the
    link adds no serialisation time, only its latency.
    """

    a: str
    b: str
    latency_s: float = 0.001
    bandwidth_bps: float = 10e9  # bytes per second

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency_s) and self.latency_s >= 0.0):
            raise SimulationError(
                f"link {self.a}-{self.b} latency must be finite and >= 0, got {self.latency_s}"
            )
        if not self.bandwidth_bps >= 0.0:
            raise SimulationError(
                f"link {self.a}-{self.b} bandwidth must be >= 0, got {self.bandwidth_bps}"
            )

    def transfer_time(self, size_bytes: int) -> float:
        """Time to push ``size_bytes`` through this link (propagation + serialisation)."""
        if size_bytes < 0:
            raise SimulationError("negative transfer size")
        serialisation = size_bytes / self.bandwidth_bps if self.bandwidth_bps > 0 else 0.0
        return self.latency_s + serialisation

    def transfer_time_packet(self, packet) -> float:
        """Transfer time for an encoded packet.

        ``packet`` is anything exposing ``.size`` as its wire length — a
        :class:`~repro.ndn.packet.WirePacket` view on the bytes-first
        transport path (where size is ``len(wire)`` with no encoder walk)
        or a decoded packet object.
        """
        return self.transfer_time(packet.size)
