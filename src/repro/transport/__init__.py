"""End-host transport: DCTCP with ECN-filter hook (PMSB(e)) and pacing."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .base import DctcpConfig, PAYLOAD_BYTES, packets_for_bytes
    from .classic_ecn import ClassicEcnSender
    from .d2tcp import D2tcpSender
    from .dcqcn import DcqcnConfig, DcqcnReceiver, DcqcnSender, open_dcqcn_flow
    from .dctcp import DctcpSender
    from .endpoints import FlowHandle, open_flow, open_flows
    from .flow import Flow
    from .receiver import DctcpReceiver
    from .timely import TimelySender

_EXPORTS = {
    ".base": ("DctcpConfig", "PAYLOAD_BYTES", "packets_for_bytes"),
    ".classic_ecn": ("ClassicEcnSender",),
    ".d2tcp": ("D2tcpSender",),
    ".dcqcn": (
        "DcqcnConfig", "DcqcnReceiver", "DcqcnSender", "open_dcqcn_flow",
    ),
    ".dctcp": ("DctcpSender",),
    ".endpoints": ("FlowHandle", "open_flow", "open_flows"),
    ".flow": ("Flow",),
    ".receiver": ("DctcpReceiver",),
    ".timely": ("TimelySender",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
