"""Unidirectional links.

A :class:`Link` models only the wire: a fixed bandwidth used by the
attached output port to compute serialization time, and a propagation
delay applied between the end of serialization and delivery at the remote
device.  Queueing, scheduling and marking all live in
:class:`repro.net.port.Port`; keeping the link dumb means every
full-duplex cable is just two independent ``Link`` objects.

The wire is also where faults live: a downed link (:meth:`Link.set_down`)
discards everything including packets already propagating, and an
installed loss model (``link.fault``, see :mod:`repro.sim.faults`)
classifies each delivered packet as delivered, lost on the wire, or
corrupted (discarded by the receiver after propagation).  Every drop is
charged to exactly one reason counter and reported to the fabric
auditor, so conservation invariants hold under loss.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from ..sim.engine import Simulator
from ..sim.faults import DROP_CRC as _VERDICT_CRC
from ..sim.faults import DROP_WIRE as _VERDICT_WIRE
from .packet import Packet

__all__ = ["Device", "Link", "DROP_DOWN", "DROP_WIRE", "DROP_CRC",
           "DROP_FLIGHT"]

#: Drop reasons (the auditor's per-link ledger keys).
DROP_DOWN = "down"      # handed to a link that was already down
DROP_WIRE = "wire"      # lost by an installed loss model
DROP_CRC = "crc"        # corrupted on the wire, discarded on arrival
DROP_FLIGHT = "flight"  # in flight when the link went down


@runtime_checkable
class Device(Protocol):
    """Anything that can terminate a link: a host or a switch (a
    protocol, so both stay plain slotted classes)."""

    name: str

    def receive(self, packet: Packet) -> None:
        """Handle a packet arriving from a link."""
        ...


class Link:
    """A unidirectional wire from an output port to a device."""

    __slots__ = ("sim", "bandwidth", "delay", "_dst", "name",
                 "packets_delivered", "up",
                 "packets_lost", "_dst_receive",
                 "fault", "_epoch", "lost_down", "lost_wire",
                 "lost_crc", "lost_flight")

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        delay: float,
        dst: Optional[Device] = None,
        name: str = "link",
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bits/second)")
        if delay < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        #: Bits per second.
        self.bandwidth = bandwidth
        #: One-way propagation delay in seconds.
        self.delay = delay
        self._dst = dst
        self._dst_receive = None if dst is None else dst.receive
        self.name = name
        self.packets_delivered = 0
        #: Failure injection: a downed link silently discards everything
        #: handed to it (a cable pull, not a graceful drain).
        self.up = True
        self.packets_lost = 0
        #: Optional loss model (:mod:`repro.sim.faults`) consulted per
        #: delivered packet.
        self.fault = None
        # Mirrors the Port.reset epoch guard: set_down() bumps the
        # epoch, and a propagation completion carrying a stale epoch is
        # a packet that was on the wire when the cable was pulled — it
        # must never reach the destination.
        self._epoch = 0
        self.lost_down = 0
        self.lost_wire = 0
        self.lost_crc = 0
        self.lost_flight = 0

    @property
    def dst(self) -> Optional[Device]:
        """The device at the far end of the wire."""
        return self._dst

    @dst.setter
    def dst(self, device: Optional[Device]) -> None:
        self._dst = device
        self._dst_receive = None if device is None else device.receive

    @property
    def loss_breakdown(self) -> Dict[str, int]:
        """Drops by reason; the values sum to :attr:`packets_lost`."""
        return {DROP_DOWN: self.lost_down, DROP_WIRE: self.lost_wire,
                DROP_CRC: self.lost_crc, DROP_FLIGHT: self.lost_flight}

    def tx_time(self, size_bytes: int) -> float:
        """Serialization time of ``size_bytes`` on this link."""
        return size_bytes * 8.0 / self.bandwidth

    def _note_drop(self, packet: Packet, reason: str) -> None:
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.on_link_drop(self, packet, reason)

    def deliver(self, packet: Packet) -> None:
        """Start propagation: the remote device receives the packet after
        ``delay`` seconds.  Must be called when serialization completes."""
        receive = self._dst_receive
        if receive is None:
            raise RuntimeError(f"{self.name}: deliver() on an unattached link")
        if not self.up:
            self.packets_lost += 1
            self.lost_down += 1
            self._note_drop(packet, DROP_DOWN)
            return
        fault = self.fault
        if fault is not None:
            verdict = fault.classify()
            if verdict == _VERDICT_WIRE:
                self.packets_lost += 1
                self.lost_wire += 1
                self._note_drop(packet, DROP_WIRE)
                return
            if verdict == _VERDICT_CRC:
                # Charged as lost now: the link never "delivers" it, since
                # the receiving port would discard it on the CRC check.
                self.packets_lost += 1
                self.lost_crc += 1
                self._note_drop(packet, DROP_CRC)
                return
        self.packets_delivered += 1
        # Never cancelled one by one: the fire-and-forget lane, no Event.
        sim = self.sim
        sim.at_ff(sim._now + self.delay, self._arrive, packet, self._epoch)

    def _arrive(self, packet: Packet, epoch: int) -> None:
        """Propagation completed.  A stale epoch means the link went
        down while this packet was on the wire: roll back the delivery
        accounting (keeping ``delivered + lost`` consistent with the
        sender port's ``tx_packets``) and discard it."""
        if epoch != self._epoch:
            self.packets_delivered -= 1
            self.packets_lost += 1
            self.lost_flight += 1
            self._note_drop(packet, DROP_FLIGHT)
            return
        self._dst_receive(packet)

    def set_down(self) -> None:
        """Fail the link: subsequent packets are lost, and packets
        already in flight never arrive (their delivery completions carry
        the previous epoch and are discarded)."""
        self.up = False
        self._epoch += 1

    def set_up(self) -> None:
        """Restore a failed link."""
        self.up = True
