"""Packet schedulers: FIFO, strict priority, WRR, DWRR, WFQ, SP+WFQ."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .base import Scheduler, normalize_weights
    from .dwrr import DwrrScheduler
    from .fifo import FifoScheduler
    from .hybrid import SpWfqScheduler
    from .strict_priority import StrictPriorityScheduler
    from .wfq import WfqScheduler
    from .wrr import WrrScheduler

_EXPORTS = {
    ".base": ("Scheduler", "normalize_weights"),
    ".dwrr": ("DwrrScheduler",),
    ".fifo": ("FifoScheduler",),
    ".hybrid": ("SpWfqScheduler",),
    ".strict_priority": ("StrictPriorityScheduler",),
    ".wfq": ("WfqScheduler",),
    ".wrr": ("WrrScheduler",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
