"""DCTCP receiver endpoint.

Two acknowledgement modes:

- **per-packet ACKs** (``ack_every=1``, the default): every data packet
  is acknowledged and echoes its own CE codepoint — "accurate ECN echo".
  The sender's marked fraction ``F`` is exact.
- **delayed ACKs with the DCTCP CE state machine** (``ack_every=m>1``):
  one cumulative ACK per ``m`` packets, *except* that a change in the
  arriving CE codepoint immediately flushes a pending ACK carrying the
  old state (the two-state machine of the DCTCP paper §3.2).  This keeps
  the sender's marked-byte accounting accurate despite coalescing.  A
  delayed-ACK timer bounds how long the last packets of a burst can sit
  unacknowledged.

Out-of-order data always triggers an immediate duplicate ACK so fast
retransmit works regardless of mode.

Coalesced-ACK state keeps only a scalar metadata tuple of the last data
packet, not the object itself, from which a delayed ACK is built later.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..net.host import Host
from ..net.packet import Packet, make_reply_ack
from ..sim.engine import Simulator
from ..sim.timers import Timer
from .flow import Flow

__all__ = ["DctcpReceiver"]

#: Scalar fields of the data packet a coalesced ACK answers:
#: (flow_id, ack_src, ack_dst, seq, service, echo_time, retransmit).
AckMeta = Tuple[int, int, int, int, int, Optional[float], bool]


class DctcpReceiver:
    """Receiver side of one flow."""

    __slots__ = (
        "sim",
        "host",
        "flow",
        "ack_every",
        "expected_seq",
        "_out_of_order",
        "_pending_acks",
        "_ce_state",
        "_last_meta",
        "_delack_timer",
        "delack_timeout",
        "packets_received",
        "bytes_received",
        "marked_packets",
        "duplicate_packets",
        "acks_sent",
        "first_arrival",
        "last_arrival",
        # False on the reference path (slow_path): every packet takes
        # the general on_data.
        "_straight",
    )

    def __init__(self, sim: Simulator, host: Host, flow: Flow,
                 ack_every: int = 1, delack_timeout: float = 1e-3):
        if ack_every < 1:
            raise ValueError("ack_every must be at least 1")
        self.sim = sim
        self.host = host
        self.flow = flow
        self.ack_every = ack_every
        self.expected_seq = 0
        self._out_of_order: Set[int] = set()
        self._pending_acks = 0
        self._ce_state = False
        self._last_meta: Optional[AckMeta] = None
        self._delack_timer = Timer(sim, self._on_delack_timeout)
        #: Seconds a coalesced ACK may be delayed before the timer fires.
        self.delack_timeout = delack_timeout
        self.packets_received = 0
        self.bytes_received = 0
        self.marked_packets = 0
        self.duplicate_packets = 0
        self.acks_sent = 0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        self._straight = not sim.slow_path

    @staticmethod
    def _meta(packet: Packet) -> AckMeta:
        # Matches make_ack: the ACK's src is the data packet's dst.
        return (packet.flow_id, packet.dst, packet.src, packet.seq,
                packet.service, packet.sent_time, packet.retransmit)

    def on_data(self, packet: Packet) -> None:
        """Host demux entry point for this flow's data packets."""
        now = self.sim._now
        if self.first_arrival is None:
            self.first_arrival = now
        self.last_arrival = now
        ce = packet.ce
        if ce:
            self.marked_packets += 1
        seq = packet.seq
        if (self._straight and seq == self.expected_seq
                and self.ack_every == 1 and not self._out_of_order):
            # In order, per-packet ACKs: the general path below reduced
            # to what it does here (nothing is pending, no gap to fill).
            seq += 1
            self.expected_seq = seq
            self.packets_received += 1
            self.bytes_received += packet.size
            self.acks_sent += 1
            self.host.send(make_reply_ack(
                packet.flow_id, packet.dst, packet.src, packet.seq,
                packet.service, packet.sent_time, packet.retransmit,
                seq, ce))
            return

        if (self.ack_every > 1 and self._pending_acks > 0
                and packet.ce != self._ce_state):
            # CE transition: flush the coalesced ACK *before* this packet
            # advances the cumulative point, carrying the old CE state —
            # the marked-byte accounting partitions exactly.  The flush
            # uses the *previous* packet's metadata.
            self._flush_pending(ece=self._ce_state)

        in_order = seq == self.expected_seq
        if in_order:
            self.expected_seq += 1
            while self.expected_seq in self._out_of_order:
                self._out_of_order.remove(self.expected_seq)
                self.expected_seq += 1
            self.packets_received += 1
            self.bytes_received += packet.size
        elif seq > self.expected_seq:
            if seq not in self._out_of_order:
                self._out_of_order.add(seq)
                self.packets_received += 1
                self.bytes_received += packet.size
            else:
                self.duplicate_packets += 1
        else:
            # Below the cumulative ACK point: a spurious retransmission.
            self.duplicate_packets += 1

        self._last_meta = self._meta(packet)
        if self.ack_every == 1 or not in_order or self._out_of_order:
            # Accurate-echo mode, or a gap: acknowledge immediately.
            self._flush_pending(ece=packet.ce)
            return

        # Delayed-ACK mode with the DCTCP CE state machine (any pending
        # CE transition was flushed above, before the cumulative point
        # moved).
        self._ce_state = packet.ce
        self._pending_acks += 1
        if self._pending_acks >= self.ack_every:
            self._flush_pending(ece=packet.ce)
        else:
            self._delack_timer.restart(self.delack_timeout)

    def _flush_pending(self, ece: bool) -> None:
        self._pending_acks = 0
        self._delack_timer.cancel()
        self.acks_sent += 1
        self.host.send(make_reply_ack(*self._last_meta, self.expected_seq,
                                      ece))

    def _on_delack_timeout(self) -> None:
        if self._pending_acks > 0 and self._last_meta is not None:
            self._flush_pending(ece=self._ce_state)
