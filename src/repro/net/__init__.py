"""Network substrate: packets, links, ports, switches, hosts, topologies."""

from .host import Host
from .interfaces import Device
from .link import Link
from .packet import ACK, ACK_BYTES, DATA, HEADER_BYTES, MTU_BYTES, Packet
from .port import Port
from .switch import Switch
from .topology import ClosGenerator, Network, TopologySpec

__all__ = [
    "ACK",
    "ACK_BYTES",
    "DATA",
    "ClosGenerator",
    "Device",
    "HEADER_BYTES",
    "Host",
    "Link",
    "MTU_BYTES",
    "Network",
    "Packet",
    "Port",
    "Switch",
    "TopologySpec",
]
