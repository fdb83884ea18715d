"""RED — Random Early Detection (Floyd & Jacobson 1993).

The paper's §II background: "DCTCP uses a special parameter setting of
RED ECN marking".  This is the general mechanism: an EWMA of the queue
length is compared against ``min_th``/``max_th``; between them packets
are marked with probability rising linearly to ``max_p`` (and the count
correction spreads marks evenly); above ``max_th`` every packet is
marked.

:meth:`RedMarker.dctcp_profile` instantiates the degenerate setting the
paper (and production DCTCP) uses: ``min_th = max_th = K``, weight 1
(instantaneous queue), ``max_p = 1`` — a step function at K.

RED here watches the *port* occupancy; combine with
:class:`~repro.ecn.per_queue.PerQueueMarker` semantics by setting
``per_queue=True`` to watch the packet's own queue instead.

Determinism: ``seed`` is a *base* seed — at attach time the marker
derives its private stream from ``(seed, port-name digest)`` with the
same splitmix64 mixing the fault layer uses, so every RED port in a
fabric draws an independent sequence, different run seeds produce
different coin flips, and results are identical at any ``--jobs`` level.
Topology builders need no extra plumbing: their per-port marker
factories construct one instance per port and the attach-time
derivation decorrelates them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..net.packet import MTU_BYTES, Packet
from ..sim.rng import make_rng, stable_digest, stable_hash
from .base import Marker, MarkPoint

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["RedMarker"]


class RedMarker(Marker):
    """Classic RED over packet-count occupancy."""

    _THRESHOLD_FIELDS = ("min_threshold", "max_threshold",
                         "max_probability", "weight")

    def __init__(
        self,
        min_threshold: float,
        max_threshold: float,
        max_probability: float = 0.1,
        weight: float = 0.002,
        per_queue: bool = False,
        mark_point: MarkPoint = MarkPoint.ENQUEUE,
        seed: int = 0,
    ):
        super().__init__(mark_point)
        if not 0 <= min_threshold <= max_threshold:
            raise ValueError("need 0 <= min_threshold <= max_threshold")
        if not 0.0 < max_probability <= 1.0:
            raise ValueError("max_probability must be in (0, 1]")
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self.max_probability = float(max_probability)
        #: EWMA gain; 1.0 means "instantaneous queue" (DCTCP setting).
        self.weight = float(weight)
        self.per_queue = per_queue
        #: Base seed; the per-port stream is derived at attach time.
        self.seed = int(seed)
        self._avg = 0.0
        #: Packets since the last mark while in the linear region — RED's
        #: count correction spreads marks uniformly.
        self._count = 0
        self._rng = None
        #: One MTU transmission time on the attached link — the sample
        #: interval of the idle correction (infinite until attach, so an
        #: unattached marker never decays).
        self._mtu_time = float("inf")

    @classmethod
    def dctcp_profile(cls, threshold_packets: float,
                      per_queue: bool = False,
                      mark_point: MarkPoint = MarkPoint.ENQUEUE) -> "RedMarker":
        """The paper's setting: instantaneous step marking at K."""
        return cls(
            min_threshold=threshold_packets,
            max_threshold=threshold_packets,
            max_probability=1.0,
            weight=1.0,
            per_queue=per_queue,
            mark_point=mark_point,
        )

    def attach(self, port: "Port") -> None:
        super().attach(port)
        self._mtu_time = MTU_BYTES * 8.0 / port.link.bandwidth
        self._rng = self._derive_stream()

    def _derive_stream(self):
        """Per-port coin-flip stream: (base seed, port-name digest).

        Same keying discipline as ``repro.sim.faults``: ports draw
        independent sequences, and the stream is reproducible across
        processes, ``--jobs`` levels, and resets.
        """
        token = 0
        if self._attached_port is not None:
            token = int(stable_digest(self._attached_port.name)[:16], 16)
        return make_rng(stable_hash(self.seed, token))

    def on_reset(self, port: "Port") -> None:
        super().on_reset(port)
        # The EWMA and the count correction describe the discarded
        # queue; a reused port starts from an empty average, and the
        # coin-flip stream restarts deterministically.
        self._avg = 0.0
        self._count = 0
        self._rng = self._derive_stream()

    @property
    def average_queue(self) -> float:
        """Current EWMA of the watched occupancy (packets)."""
        return self._avg

    def _occupancy(self, port: "Port", queue_index: int) -> int:
        if self.per_queue:
            return port.queue_packet_count(queue_index)
        return port.packet_count

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        # Classic RED idle correction: while the port sat idle the queue
        # was empty, but no packets arrived to sample it, so the EWMA
        # goes stale at its last (possibly high) value and would mark
        # the first packets of a fresh burst.  Decay it as if m empty
        # samples were taken, one per MTU transmission time of idleness
        # (Floyd & Jacobson §11).  ``port.busy`` is the true idle signal
        # — one-MTU gaps between back-to-back transmissions must not
        # count (same discipline as MQ-ECN's T_idle reset).
        if self.weight < 1.0 and self._avg > 0.0 and not port.busy:
            idle = port.sim.now - port.last_departure
            if idle > self._mtu_time:
                self._avg *= (1.0 - self.weight) ** (idle / self._mtu_time)
        occupancy = self._occupancy(port, queue_index)
        self._avg += self.weight * (occupancy - self._avg)
        if self._avg < self.min_threshold:
            self._count = 0
            return False
        if self._avg >= self.max_threshold:
            self._count = 0
            return True
        # Linear region with count correction.
        span = self.max_threshold - self.min_threshold
        base_p = self.max_probability * (self._avg - self.min_threshold) / span
        self._count += 1
        denominator = 1.0 - self._count * base_p
        probability = base_p / denominator if denominator > 0 else 1.0
        if self._rng.random() < probability:
            self._count = 0
            return True
        return False
