"""Packet model.

A :class:`Packet` is a mutable record that travels through the simulated
network.  Switches never copy packets; the object created by the sender is
the one delivered to the receiver, so per-packet state (ECN codepoint,
enqueue timestamp for TCN sojourn time) is simply carried on the object.

ECN state follows RFC 3168 semantics at the granularity we need:

- ``ect``  — the transport declared the packet ECN-capable (ECT(0)).
- ``ce``   — a switch observed congestion and set Congestion Experienced.
- ``ece``  — on ACKs only: the receiver echoes CE back to the sender.

``service`` models the DSCP field: operators isolate services to switch
queues by DSCP, and our switch classifiers map ``service`` to a queue
index the same way.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "Packet",
    "DATA", "ACK", "MTU_BYTES", "ACK_BYTES", "HEADER_BYTES",
    "make_data", "make_ack", "make_reply_ack", "release",
]

#: Wire size of a full-sized data packet (bytes).  The paper's experiments
#: use 1502-byte packets on 1 Gbps links for the sojourn-time arithmetic;
#: we default to the conventional 1500-byte MTU and expose the size on
#: every packet so thresholds expressed in packets stay exact.
MTU_BYTES = 1500
#: Wire size of a pure ACK (bytes).
ACK_BYTES = 40
#: Header overhead accounted inside ``MTU_BYTES`` (Ethernet+IP+TCP).
HEADER_BYTES = 54

DATA = 0
ACK = 1
#: Congestion Notification Packet (DCQCN): the receiver's rate-limited
#: "I saw CE" signal back to the sender.
CNP = 2
#: Negative acknowledgement (DCQCN/RoCE go-back-N): "resend from seq".
NACK = 3


class Packet:
    """One simulated packet (data segment or ACK)."""

    __slots__ = (
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "size",
        "service",
        "ect",
        "ce",
        "ece",
        "ack_seq",
        "echo_time",
        "sent_time",
        "enqueue_time",
        "retransmit",
    )

    def __init__(
        self,
        kind: int,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size: int,
        service: int = 0,
        ect: bool = True,
    ):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.service = service
        self.ect = ect
        self.ce = False
        #: On ACKs: the receiver saw CE on the data packet being acked.
        self.ece = False
        #: On ACKs: cumulative acknowledgement (next expected data seq).
        self.ack_seq = 0
        #: On ACKs: ``sent_time`` of the data packet that triggered this
        #: ACK, echoed back so the sender can take an exact RTT sample.
        self.echo_time: Optional[float] = None
        #: Stamped by the sender when the packet enters its NIC queue.
        self.sent_time: Optional[float] = None
        #: Stamped by a switch port at enqueue (TCN sojourn time).
        self.enqueue_time: Optional[float] = None
        self.retransmit = False

    @property
    def is_data(self) -> bool:
        return self.kind == DATA

    @property
    def is_ack(self) -> bool:
        return self.kind == ACK

    @property
    def to_sender(self) -> bool:
        """True for any reverse-path packet (ACK/CNP/NACK)."""
        return self.kind != DATA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DATA" if self.kind == DATA else "ACK"
        mark = "+CE" if self.ce else ""
        return (
            f"Packet({kind} flow={self.flow_id} seq={self.seq} "
            f"{self.src}->{self.dst} {self.size}B{mark})"
        )


def release(packet: Packet) -> None:
    """No-op.  Packets are plain garbage-collected objects; this name
    stays only so callers written against the former packet pool (the
    perfbench layer probes) keep importing and running."""


def make_data(flow_id: int, src: int, dst: int, seq: int,
              size: int = MTU_BYTES, service: int = 0, ect: bool = True) -> Packet:
    """Convenience constructor for a data packet."""
    return Packet(DATA, flow_id, src, dst, seq, size, service, ect)


def make_ack(data: Packet, ack_seq: int, ece: bool) -> Packet:
    """Build the ACK a receiver sends in response to ``data``.

    ACKs are not ECN-capable (``ect=False``), mirroring standard practice:
    marking ACKs would make the reverse path interfere with the forward
    congestion signal.
    """
    return make_reply_ack(data.flow_id, data.dst, data.src, data.seq,
                          data.service, data.sent_time, data.retransmit,
                          ack_seq, ece)


def make_reply_ack(flow_id: int, src: int, dst: int, seq: int, service: int,
                   echo_time: Optional[float], retransmit: bool,
                   ack_seq: int, ece: bool) -> Packet:
    """Build an ACK from the scalar fields of the data packet it answers.

    Same wire semantics as :func:`make_ack` but without needing the data
    packet object itself — receivers that coalesce ACKs keep only this
    metadata.
    """
    ack = Packet(ACK, flow_id, src, dst, seq, ACK_BYTES, service, False)
    ack.ack_seq = ack_seq
    ack.ece = ece
    ack.echo_time = echo_time
    # Karn's rule support: the sender must not take RTT samples from ACKs
    # of retransmitted segments.
    ack.retransmit = retransmit
    return ack
