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

import itertools
from typing import Optional

from ..sim.engine import slow_path_default

__all__ = [
    "Packet", "PacketPool", "POOL",
    "DATA", "ACK", "MTU_BYTES", "ACK_BYTES", "HEADER_BYTES",
    "make_data", "make_ack", "make_reply_ack",
    "release", "set_pooling",
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

_packet_counter = itertools.count()


class Packet:
    """One simulated packet (data segment or ACK)."""

    __slots__ = (
        "uid",
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
        "pinned",
        "pooled",
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
        self.uid = next(_packet_counter)
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
        #: Set by observers that keep a reference past the packet's
        #: network lifetime (``repro.net.tracing``, the fabric auditor):
        #: a pinned packet is never recycled through the pool.
        self.pinned = False
        #: True while the object sits in the free-list (double-release
        #: guard; also lets observers detect a recycled handle).
        self.pooled = False

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


class PacketPool:
    """Bounded free-list of recycled :class:`Packet` objects.

    Packet workloads allocate one object per data segment and per ACK;
    at millions of events per sweep point that is pure allocator and GC
    churn.  The pool lets terminal consumers (the endpoint that a packet
    is dispatched to, the drop site, a downed link) hand objects back
    for reuse by :func:`make_data`/:func:`make_ack`.

    Determinism contract: a recycled packet gets a **fresh uid** from the
    same global counter a newly constructed packet would draw, so uid
    sequences — and therefore every trace and export — are identical
    with the pool enabled, disabled (``REPRO_SLOW_PATH=1``), or bypassed.

    Safety contract: observers that retain packet references past the
    network lifetime (``repro.net.tracing.PacketTrace``, the
    :class:`~repro.sim.audit.FabricAuditor`) set ``packet.pinned``;
    :meth:`release` refuses pinned packets (counted in ``pinned_skips``),
    so captured objects are never mutated behind the observer's back
    while the rest of the fabric keeps pooling.
    """

    __slots__ = ("free", "max_free", "enabled",
                 "allocated", "reused", "released", "pinned_skips")

    def __init__(self, max_free: int = 8192, enabled: bool = True):
        self.free: list[Packet] = []
        self.max_free = max_free
        self.enabled = enabled
        #: Pool misses: a fresh object had to be constructed.
        self.allocated = 0
        #: Pool hits: an allocation was avoided.
        self.reused = 0
        #: Packets accepted back into the free-list.
        self.released = 0
        #: Releases refused because the packet was pinned by an observer.
        self.pinned_skips = 0

    def acquire(self, kind: int, flow_id: int, src: int, dst: int,
                seq: int, size: int, service: int, ect: bool) -> Packet:
        """Return a packet with all fields reset, reusing a released one."""
        free = self.free
        if free:
            self.reused += 1
            packet = free.pop()
            packet.pooled = False
            packet.uid = next(_packet_counter)
            packet.kind = kind
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.seq = seq
            packet.size = size
            packet.service = service
            packet.ect = ect
            packet.ce = False
            packet.ece = False
            packet.ack_seq = 0
            packet.echo_time = None
            packet.sent_time = None
            packet.enqueue_time = None
            packet.retransmit = False
            packet.pinned = False
            return packet
        self.allocated += 1
        return Packet(kind, flow_id, src, dst, seq, size, service, ect)

    def release(self, packet: Packet) -> None:
        """Hand a packet at end-of-life back for reuse.

        No-op when pooling is disabled, when the packet is pinned by an
        observer, or when it was already released (double-release guard).
        """
        if not self.enabled:
            return
        if packet.pinned:
            self.pinned_skips += 1
            return
        if packet.pooled:
            return
        free = self.free
        if len(free) < self.max_free:
            packet.pooled = True
            self.released += 1
            free.append(packet)

    @property
    def acquires(self) -> int:
        """Total acquire calls (``allocated + reused``)."""
        return self.allocated + self.reused

    def hit_rate(self) -> float:
        """Fraction of acquires served from the free-list."""
        total = self.allocated + self.reused
        return self.reused / total if total else 0.0

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "allocated": self.allocated,
            "reused": self.reused,
            "released": self.released,
            "pinned_skips": self.pinned_skips,
            "free": len(self.free),
            "hit_rate": self.hit_rate(),
        }

    def reset(self) -> None:
        """Drop the free-list and zero the counters (test isolation)."""
        self.free.clear()
        self.allocated = 0
        self.reused = 0
        self.released = 0
        self.pinned_skips = 0


#: Process-wide pool.  ``REPRO_SLOW_PATH=1`` starts it disabled so the
#: escape-hatch path is allocation-for-allocation the pre-pool datapath.
POOL = PacketPool(enabled=not slow_path_default())


def set_pooling(enabled: bool) -> None:
    """Enable/disable packet recycling (the free-list is dropped on
    disable so stale objects cannot resurface later)."""
    POOL.enabled = enabled
    if not enabled:
        POOL.free.clear()


def release(packet: Packet) -> None:
    """Module-level convenience for :meth:`PacketPool.release`."""
    POOL.release(packet)


def make_data(flow_id: int, src: int, dst: int, seq: int,
              size: int = MTU_BYTES, service: int = 0, ect: bool = True) -> Packet:
    """Convenience constructor for a data packet (pool-backed)."""
    return POOL.acquire(DATA, flow_id, src, dst, seq, size, service, ect)


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
    packet object itself — receivers that already released the packet
    (delayed ACKs) keep only this metadata.
    """
    ack = POOL.acquire(ACK, flow_id, src, dst, seq, ACK_BYTES, service, False)
    ack.ack_seq = ack_seq
    ack.ece = ece
    ack.echo_time = echo_time
    # Karn's rule support: the sender must not take RTT samples from ACKs
    # of retransmitted segments.
    ack.retransmit = retransmit
    return ack
