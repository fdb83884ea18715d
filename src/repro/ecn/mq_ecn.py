"""MQ-ECN (Bai et al., NSDI 2016) — the round-based baseline.

MQ-ECN keeps a *dynamic* per-queue threshold

    K_i = min(quantum_i / T_round, C) × RTT × λ          (paper Eq. 3)

where ``T_round`` is a smoothed estimate of how long the scheduler takes
to serve all backlogged queues once.  Busy rounds → large ``T_round`` →
small ``K_i`` (latency protected); few active queues → small ``T_round``
→ ``K_i`` saturates at the standard threshold (throughput protected).

``T_round`` only exists for round-based schedulers (WRR/DWRR): the marker
subscribes to the scheduler's ``round_observer`` at attach time and
refuses schedulers without rounds — reproducing MQ-ECN's structural
limitation (Table I).

Following the paper's §VI settings, the round sample is smoothed with
``β = 0.75`` and the estimate is reset after the port has been idle for
``T_idle`` (default: one MTU transmission time), so a freshly busy port
starts from the permissive standard threshold.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..net.packet import MTU_BYTES, Packet
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["MqEcnMarker"]


class MqEcnMarker(Marker):
    """Dynamic per-queue thresholds driven by the scheduler round time."""

    _THRESHOLD_FIELDS = ("rtt", "lam", "t_idle")

    def __init__(
        self,
        rtt: float,
        lam: float = 1.0,
        beta: float = 0.75,
        t_idle: Optional[float] = None,
        mark_point: MarkPoint = MarkPoint.ENQUEUE,
    ):
        super().__init__(mark_point)
        if rtt <= 0:
            raise ValueError("rtt must be positive")
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must be in [0, 1)")
        self.rtt = rtt
        self.lam = lam
        self.beta = beta
        #: Idle gap after which T_round resets (None until attach when
        #: defaulted, since it needs the link rate).
        self.t_idle = t_idle
        self._port: Optional["Port"] = None
        self._capacity_bps = 0.0
        self._t_round = 0.0
        self._last_round_start: Optional[float] = None

    @property
    def t_round(self) -> float:
        """Current smoothed round-time estimate in seconds."""
        return self._t_round

    def attach(self, port: "Port") -> None:
        if not port.scheduler.is_round_based:
            raise ValueError(
                "MQ-ECN requires a round-based scheduler (WRR/DWRR); "
                f"{type(port.scheduler).__name__} has no round concept"
            )
        super().attach(port)
        self._port = port
        self._capacity_bps = port.link.bandwidth
        if self.t_idle is None:
            self.t_idle = MTU_BYTES * 8.0 / self._capacity_bps
        port.scheduler.round_observer = self._on_round

    def _validate_thresholds(self, merged) -> None:
        if merged["rtt"] <= 0:
            raise ValueError("rtt must be positive")
        if merged["t_idle"] is not None and merged["t_idle"] < 0:
            raise ValueError("t_idle cannot be negative")

    def on_reset(self, port: "Port") -> None:
        super().on_reset(port)
        # Round bookkeeping is per-traffic-epoch: a reset port starts
        # from the permissive standard threshold, exactly like the
        # T_idle path, instead of carrying a stale round estimate into
        # the next sweep iteration.
        self._t_round = 0.0
        self._last_round_start = None

    # -- round-time estimation -------------------------------------------

    def _on_round(self) -> None:
        now = self._port.sim.now
        if self._last_round_start is not None:
            sample = now - self._last_round_start
            self._t_round = self.beta * self._t_round + (1.0 - self.beta) * sample
        self._last_round_start = now

    def on_enqueue(self, port: "Port", queue_index: int, packet: Packet) -> None:
        # A packet arriving at an idle port after more than T_idle of
        # silence: MQ-ECN resets its round-time estimate, so the freshly
        # busy port starts from the permissive standard threshold rather
        # than a stale (large) T_round.  ``port.busy`` is the true idle
        # signal — gaps between back-to-back transmissions are exactly one
        # MTU time and must NOT count as idle.
        if not port.busy and port.sim.now - port.last_departure > self.t_idle:
            self._t_round = 0.0
            self._last_round_start = None
        super().on_enqueue(port, queue_index, packet)

    # -- marking -----------------------------------------------------------

    def queue_threshold_bytes(self, port: "Port", queue_index: int) -> float:
        """Current dynamic threshold ``K_i`` of one queue, in bytes."""
        capacity_Bps = self._capacity_bps / 8.0
        t_round = self._t_round
        if t_round <= 0.0:
            drain_Bps = capacity_Bps
        else:
            quantum = port.scheduler.queue_quantum(queue_index)  # type: ignore[attr-defined]
            drain_Bps = min(quantum / t_round, capacity_Bps)
        return drain_Bps * self.rtt * self.lam

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        return port.queue_byte_count(queue_index) >= self.queue_threshold_bytes(
            port, queue_index
        )
