"""PMSB — per-Port Marking with Selective Blindness (Algorithm 1).

The switch marks a packet CE only when **both** conditions hold:

1. *port marking*: ``port_length ≥ port_threshold`` — the per-port DCTCP
   condition ``K = C·RTT·λ`` (Eq. 5), giving high throughput and low
   latency like plain per-port ECN;
2. *selective blindness*: ``queue_length_i ≥ queue_threshold_i`` with
   ``queue_threshold_i = (weight_i / weight_sum) × port_threshold``
   (Eq. 6) — a packet whose own queue is below its fair share of the port
   buffer is a *victim* of other queues' occupancy, and its marking is
   revoked.

The comparison operators follow Algorithm 1 exactly: the port check fails
when ``port_length < port_threshold`` (line 1), the queue check passes
when ``queue_length_i ≥ queue_threshold_i`` (line 5).

``blindness_scale`` is an ablation knob (not in the paper's algorithm):
the queue filter threshold is multiplied by it.  ``0`` disables selective
blindness entirely (pure per-port marking); values above 1 make the filter
more conservative.  The paper's design point is ``1.0``.

§IV-C notes PMSB "can directly compare instantaneous or average queue
length with threshold".  ``average_weight`` selects that: ``None`` (the
default) compares instantaneous occupancy; a value in (0, 1] applies an
RED-style EWMA to the *port* occupancy before the port-threshold
comparison (the queue filter always uses instantaneous occupancy — it
protects against a momentary, not average, imbalance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..ecn.base import Marker, MarkPoint
from ..net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port

__all__ = ["PmsbMarker"]


class PmsbMarker(Marker):
    """Algorithm 1: per-port marking gated by a per-queue share filter."""

    _THRESHOLD_FIELDS = ("port_threshold_packets", "blindness_scale")

    def __init__(
        self,
        port_threshold_packets: float,
        mark_point: MarkPoint = MarkPoint.ENQUEUE,
        blindness_scale: float = 1.0,
        average_weight: float = None,
    ):
        super().__init__(mark_point)
        if port_threshold_packets < 0:
            raise ValueError("port threshold cannot be negative")
        if blindness_scale < 0:
            raise ValueError("blindness_scale cannot be negative")
        if average_weight is not None and not 0.0 < average_weight <= 1.0:
            raise ValueError("average_weight must be in (0, 1] or None")
        self.port_threshold_packets = float(port_threshold_packets)
        self.blindness_scale = float(blindness_scale)
        self.average_weight = average_weight
        self._avg_port = 0.0
        # Cached sum of the attached port's scheduler weights: Eq. 6
        # needs it for every marking decision and the weight vector is
        # fixed for the port's lifetime, so it is computed once at
        # attach (and refreshed on reset) instead of per packet.
        self._weight_sum = None
        #: Count of packets that qualified per-port marking but were
        #: spared by selective blindness — the protected victims.
        self.victims_protected = 0

    def attach(self, port: "Port") -> None:
        super().attach(port)
        self._weight_sum = self._compute_weight_sum(port)

    def on_reset(self, port: "Port") -> None:
        super().on_reset(port)
        # §IV-C averaged-occupancy variant: the port EWMA tracks the
        # discarded buffer contents, so it restarts from empty.
        self._avg_port = 0.0
        self._weight_sum = self._compute_weight_sum(port)

    @staticmethod
    def _compute_weight_sum(port: "Port") -> float:
        weight_sum = sum(port.weights)
        if weight_sum <= 0:
            raise ValueError(
                f"PMSB needs a positive scheduler weight sum on "
                f"{port.name}, got {weight_sum!r}: Eq. 6 divides the "
                f"port threshold by it")
        return weight_sum

    def port_occupancy(self, port: "Port") -> float:
        """The occupancy compared against the port threshold
        (instantaneous, or EWMA when ``average_weight`` is set)."""
        if self.average_weight is None:
            return float(port.packet_count)
        self._avg_port += self.average_weight * (
            port.packet_count - self._avg_port
        )
        return self._avg_port

    def queue_threshold(self, port: "Port", queue_index: int) -> float:
        """``queue_threshold_i`` of Eq. 6 (packets), scaled for ablations."""
        weight_sum = self._weight_sum
        if weight_sum is None:  # direct call before any attach
            weight_sum = self._compute_weight_sum(port)
        share = port.weights[queue_index] / weight_sum
        return share * self.port_threshold_packets * self.blindness_scale

    def decide(self, port: "Port", queue_index: int, packet: Packet) -> bool:
        if self.port_occupancy(port) < self.port_threshold_packets:
            return False
        if port.queue_packet_count(queue_index) >= self.queue_threshold(
            port, queue_index
        ):
            return True
        self.victims_protected += 1
        return False

    def hop_hooks(self):
        if (type(self) is PmsbMarker and self.average_weight is None
                and self.mark_point is MarkPoint.ENQUEUE):
            return self.mark_enqueue, False
        return super().hop_hooks()

    def mark_enqueue(self, port: "Port", queue_index: int,
                     packet: Packet) -> None:
        """:meth:`on_enqueue` in straight-line form (instantaneous
        occupancy, enqueue point): the same decision and counters, read
        directly off the port's counters."""
        if not packet.ect:
            return
        self.packets_seen += 1
        threshold = self.port_threshold_packets
        if port._packet_count < threshold:
            return
        if port._queue_packets[queue_index] >= (
                port.scheduler.weights[queue_index] / self._weight_sum
                * threshold * self.blindness_scale):
            packet.ce = True
            self.packets_marked += 1
        else:
            self.victims_protected += 1
