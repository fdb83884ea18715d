"""Throughput measurement.

:class:`ThroughputMeter` bins transmitted bytes by arbitrary keys over
fixed time windows.  Observing a port (``port.observe(meter)``) it keys
by queue index — the view the paper's weighted-fair-sharing figures plot
(throughput of queue 1 vs queue 2 over time).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple, TYPE_CHECKING

from ..sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    from ..net.packet import Packet
    from ..net.port import Port

__all__ = ["ThroughputMeter", "fair_share_error"]


def fair_share_error(victim_gbps: float, other_gbps: float) -> float:
    """The Fig. 3 metric: |victim − fair| / fair with ``fair`` the
    equal-weight share (half the total); 0.0 when nothing was carried."""
    total = victim_gbps + other_gbps
    if total == 0:
        return 0.0
    fair = total / 2.0
    return abs(victim_gbps - fair) / fair


class ThroughputMeter:
    """Binned byte counters → throughput time series."""

    def __init__(self, sim: Simulator, bin_width: float = 1e-3):
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        self.sim = sim
        self.bin_width = bin_width
        self._bins: Dict[Hashable, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._totals: Dict[Hashable, int] = defaultdict(int)
        self._first_time: Optional[float] = None
        self._last_time: Optional[float] = None

    def record(self, key: Hashable, nbytes: int) -> None:
        """Account ``nbytes`` transmitted for ``key`` at the current time."""
        now = self.sim.now
        if self._first_time is None:
            self._first_time = now
        self._last_time = now
        self._bins[key][int(now / self.bin_width)] += nbytes
        self._totals[key] += nbytes

    def departed(self, port: "Port", queue_index: int,
                 packet: "Packet") -> None:
        """Port observer: ``port.observe(meter)`` meters the port's
        departures, keyed by queue index."""
        self.record(queue_index, packet.size)

    def keys(self) -> List[Hashable]:
        return list(self._bins.keys())

    def total_bytes(self, key: Hashable) -> int:
        return self._totals.get(key, 0)

    def average_bps(self, key: Hashable, t0: float, t1: float) -> float:
        """Mean throughput of ``key`` over the window ``[t0, t1)``."""
        if t1 <= t0:
            raise ValueError("window must have positive length")
        bins = self._bins.get(key, {})
        first_bin = int(t0 / self.bin_width)
        last_bin = int(t1 / self.bin_width)
        total = sum(
            count for index, count in bins.items() if first_bin <= index < last_bin
        )
        return total * 8.0 / (t1 - t0)

    def series(self, key: Hashable, t0: float = 0.0,
               t1: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Throughput time series ``(bin_centers_s, bits_per_second)``."""
        import numpy as np  # only the series needs arrays
        if t1 is None:
            t1 = self._last_time if self._last_time is not None else t0
        bins = self._bins.get(key, {})
        first_bin = int(t0 / self.bin_width)
        last_bin = max(first_bin + 1, int(np.ceil(t1 / self.bin_width)))
        n = last_bin - first_bin
        counts = np.zeros(n)
        for index, count in bins.items():
            if first_bin <= index < last_bin:
                counts[index - first_bin] = count
        times = (np.arange(first_bin, last_bin) + 0.5) * self.bin_width
        return times, counts * 8.0 / self.bin_width
