"""ECN marking schemes: commodity baselines (per-queue, per-port, pool)
and research baselines (MQ-ECN, TCN).  The paper's contribution, PMSB,
lives in :mod:`repro.core`."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .base import Marker, MarkPoint, NullMarker
    from .mq_ecn import MqEcnMarker
    from .per_port import PerPortMarker
    from .per_queue import PerQueueMarker, fractional_thresholds, standard_thresholds
    from .phantom import PhantomQueueMarker
    from .red import RedMarker
    from .service_pool import BufferPool, DynamicThresholdPool, ServicePoolMarker
    from .tcn import TcnMarker

_EXPORTS = {
    ".base": ("MarkPoint", "Marker", "NullMarker"),
    ".mq_ecn": ("MqEcnMarker",),
    ".per_port": ("PerPortMarker",),
    ".per_queue": (
        "PerQueueMarker", "fractional_thresholds", "standard_thresholds",
    ),
    ".phantom": ("PhantomQueueMarker",),
    ".red": ("RedMarker",),
    ".service_pool": (
        "BufferPool", "DynamicThresholdPool", "ServicePoolMarker",
    ),
    ".tcn": ("TcnMarker",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
