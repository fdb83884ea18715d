"""Per-service-pool ECN marking.

Commodity chips can also mark against a *shared buffer pool* spanning
several ports.  The paper argues (end of §II-B) this violates weighted
fair sharing even across ports, for the same reason per-port marking does
within a port.  We model the pool as an explicit accounting object that
member ports debit/credit, with an optional admission capacity.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..net.packet import Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["BufferPool", "DynamicThresholdPool", "ServicePoolMarker"]


class BufferPool:
    """Shared buffer accounting across the ports that reference it.

    Admission is a simple global cap: a packet is admitted while the pool
    holds fewer than ``capacity_packets``.  See
    :class:`DynamicThresholdPool` for the Choudhury–Hahne policy real
    shared-memory switches use.
    """

    __slots__ = ("name", "capacity_packets", "packet_count", "byte_count", "rejections")

    def __init__(self, capacity_packets: Optional[int] = None, name: str = "pool"):
        self.name = name
        self.capacity_packets = capacity_packets
        self.packet_count = 0
        self.byte_count = 0
        #: Failed admissions, charged by the port at the drop site
        #: (:meth:`admits` itself is pure).
        self.rejections = 0

    @property
    def is_full(self) -> bool:
        if self.capacity_packets is None:
            return False
        return self.packet_count >= self.capacity_packets

    def admits(self, port_occupancy: int) -> bool:
        """May a port currently holding ``port_occupancy`` packets admit
        one more?

        A **pure** query: any caller (metrics probe, the invariant
        auditor, a what-if policy evaluation) may call it speculatively
        without perturbing statistics.  The drop site —
        :meth:`repro.net.port.Port.enqueue` — charges ``rejections``
        when an actual admission fails.
        """
        return not self.is_full

    def add(self, nbytes: int) -> None:
        self.packet_count += 1
        self.byte_count += nbytes

    def remove(self, nbytes: int) -> None:
        self.credit(1, nbytes)

    def credit(self, packets: int, nbytes: int) -> None:
        """Return ``packets``/``nbytes`` to the pool in one step.

        The per-packet transmission path lands here via :meth:`remove`;
        bulk callers (:meth:`repro.net.port.Port.reset` returning a whole
        buffer at once) call it directly.  Routing every credit through
        one method keeps the negative-accounting guard — and any policy
        subclass bookkeeping — impossible to bypass.
        """
        self.packet_count -= packets
        self.byte_count -= nbytes
        if self.packet_count < 0 or self.byte_count < 0:
            raise RuntimeError(f"{self.name}: pool accounting went negative "
                               f"({self.packet_count}pkts/{self.byte_count}B)")


class DynamicThresholdPool(BufferPool):
    """Choudhury–Hahne dynamic-threshold buffer sharing.

    A port may grow its occupancy only up to ``alpha × free``, where
    ``free`` is the unused pool space.  A single congested port therefore
    self-limits to ``alpha/(1+alpha)`` of the buffer, always leaving
    headroom that lets other ports absorb micro-bursts — the behaviour
    the paper's micro-burst references ([13], [14]) build on.
    """

    __slots__ = ("alpha",)

    def __init__(self, capacity_packets: int, alpha: float = 1.0,
                 name: str = "dt-pool"):
        if capacity_packets is None or capacity_packets < 1:
            raise ValueError("dynamic threshold needs a finite capacity")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        super().__init__(capacity_packets, name)
        self.alpha = alpha

    def threshold(self) -> float:
        """The instantaneous per-port occupancy limit ``alpha × free``."""
        free = self.capacity_packets - self.packet_count
        return self.alpha * max(0, free)

    def admits(self, port_occupancy: int) -> bool:
        return not self.is_full and port_occupancy < self.threshold()


class ServicePoolMarker(Marker):
    """Mark when the shared pool's total occupancy reaches the threshold."""

    _THRESHOLD_FIELDS = ("threshold_packets",)

    def __init__(
        self,
        pool: BufferPool,
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
