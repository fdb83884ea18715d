"""End hosts.

A host owns one NIC output port (plain FIFO, no marking — marking is the
network's job) and a demultiplexer from flow id to the transport endpoints
registered on it.  Data packets are dispatched to the flow's receiver
endpoint, ACKs to its sender endpoint.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.engine import Simulator
from .packet import DATA, Packet
from .port import Port

__all__ = ["Host"]

PacketHandler = Callable[[Packet], None]


class Host:
    """A server attached to the fabric by a single NIC."""

    __slots__ = ("sim", "host_id", "name", "nic", "_data_handlers", "_ack_handlers",
                 "received_packets", "received_bytes")

    def __init__(self, sim: Simulator, host_id: int, name: Optional[str] = None):
        self.sim = sim
        self.host_id = host_id
        self.name = name if name is not None else f"host{host_id}"
        self.nic: Optional[Port] = None
        self._data_handlers: Dict[int, PacketHandler] = {}
        self._ack_handlers: Dict[int, PacketHandler] = {}
        self.received_packets = 0
        self.received_bytes = 0

    def attach_nic(self, port: Port) -> None:
        """Install the host's output port (done by the topology builder)."""
        self.nic = port

    def register_flow(
        self,
        flow_id: int,
        data_handler: Optional[PacketHandler] = None,
        ack_handler: Optional[PacketHandler] = None,
    ) -> None:
        """Register transport endpoints for one flow on this host."""
        if data_handler is not None:
            self._data_handlers[flow_id] = data_handler
        if ack_handler is not None:
            self._ack_handlers[flow_id] = ack_handler

    def unregister_flow(self, flow_id: int) -> None:
        self._data_handlers.pop(flow_id, None)
        self._ack_handlers.pop(flow_id, None)

    def send(self, packet: Packet) -> bool:
        """Hand a packet to the NIC.  Returns False if the NIC dropped it."""
        if self.nic is None:
            raise RuntimeError(f"{self.name}: no NIC attached")
        return self.nic.enqueue(packet, 0)

    def receive(self, packet: Packet) -> None:
        """Dispatch an arriving packet to the registered endpoint."""
        self.received_packets += 1
        self.received_bytes += packet.size
        # Reverse-path packets (ACK/CNP/NACK) go to the sender endpoint.
        # Direct kind check: the ``to_sender`` property costs a function
        # call per delivered packet on the hottest dispatch point.
        handlers = self._ack_handlers if packet.kind != DATA else self._data_handlers
        handler = handlers.get(packet.flow_id)
        # A packet of an unregistered flow is silently dropped, mirroring
        # a real host discarding segments for closed connections.
        if handler is not None:
            handler(packet)
