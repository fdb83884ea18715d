"""Network substrate: packets, links, ports, switches, hosts, topologies."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .link import Device, Link
    from .packet import ACK, ACK_BYTES, DATA, HEADER_BYTES, MTU_BYTES, Packet
    from .port import Port
    from .switch import Switch
    from .topology import ClosGenerator, Network, TopologySpec

_EXPORTS = {
    ".host": ("Host",),
    ".link": ("Device", "Link"),
    ".packet": (
        "ACK", "ACK_BYTES", "DATA", "HEADER_BYTES", "MTU_BYTES",
        "Packet",
    ),
    ".port": ("Port",),
    ".switch": ("Switch",),
    ".topology": ("ClosGenerator", "Network", "TopologySpec"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
