"""Per-service-pool ECN marking.

Commodity chips can also mark against a *shared buffer pool* spanning
several ports.  The paper argues (end of §II-B) this violates weighted
fair sharing even across ports, for the same reason per-port marking does
within a port.  The pool is a :class:`~repro.net.sharedbuf.SharedBuffer`
whose member ports debit/credit it through their accounts; this marker
reads its switch-wide occupancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.packet import Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port
    from ..net.sharedbuf import SharedBuffer

__all__ = ["ServicePoolMarker"]


class ServicePoolMarker(Marker):
    """Mark when the shared pool's total occupancy reaches the threshold."""

    _THRESHOLD_FIELDS = ("threshold_packets",)

    def __init__(
        self,
        pool: "SharedBuffer",
        threshold_packets: float,
        mark_point: MarkPoint = MarkPoint.ENQUEUE,
    ):
        super().__init__(mark_point)
        if threshold_packets < 0:
            raise ValueError("threshold cannot be negative")
        self.pool = pool
        self.threshold_packets = float(threshold_packets)

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        return self.pool.packet_count >= self.threshold_packets
