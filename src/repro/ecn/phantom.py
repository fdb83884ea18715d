"""Phantom-queue marking (HULL, Alizadeh et al., NSDI 2012).

A *phantom queue* is a counter that simulates a virtual queue draining at
a fraction ``drain_factor < 1`` of the line rate: each departing packet
adds its size to the counter, which leaks at ``drain_factor × C``.
Marking against the phantom queue signals congestion *before* any real
queue forms, trading a few percent of bandwidth headroom for near-zero
queueing latency.

Included as the third design point of the low-latency ECN literature the
paper builds on (buffer-based DCTCP/PMSB, time-based TCN, utilization-
based HULL); like TCN it is scheduler-agnostic, and like per-port
schemes it is blind to queue identity — combine with PMSB-style
filtering by wrapping if desired.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.packet import Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["PhantomQueueMarker"]


class PhantomQueueMarker(Marker):
    """Mark when the virtual (phantom) queue exceeds the threshold."""

    supported_points = frozenset({MarkPoint.DEQUEUE})
    _THRESHOLD_FIELDS = ("threshold_bytes", "drain_factor")

    def __init__(self, threshold_bytes: float, drain_factor: float = 0.95):
        super().__init__(MarkPoint.DEQUEUE)
        if threshold_bytes < 0:
            raise ValueError("threshold cannot be negative")
        if not 0.0 < drain_factor <= 1.0:
            raise ValueError("drain_factor must be in (0, 1]")
        self.threshold_bytes = float(threshold_bytes)
        self.drain_factor = float(drain_factor)
        self._phantom_bytes = 0.0
        self._last_update = 0.0
        self._drain_Bps = 0.0

    def attach(self, port: "Port") -> None:
        super().attach(port)
        self._drain_Bps = self.drain_factor * port.link.bandwidth / 8.0

    def on_reset(self, port: "Port") -> None:
        super().on_reset(port)
        # The virtual queue drains with the discarded real one; anchoring
        # the leak clock at now prevents a huge retroactive leak window.
        self._phantom_bytes = 0.0
        self._last_update = port.sim.now

    @property
    def phantom_bytes(self) -> float:
        """Current virtual-queue depth (bytes, before leak update)."""
        return self._phantom_bytes

    def _leak(self, now: float) -> None:
        elapsed = now - self._last_update
        self._last_update = now
        self._phantom_bytes = max(
            0.0, self._phantom_bytes - elapsed * self._drain_Bps
        )

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        self._leak(port.sim.now)
        self._phantom_bytes += packet.size
        return self._phantom_bytes > self.threshold_bytes
