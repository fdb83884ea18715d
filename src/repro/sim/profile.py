"""Lightweight observability for simulation runs.

A :class:`SimProfiler` attaches to one :class:`~repro.sim.engine.Simulator`
(via ``sim.profiler``) and collects four kinds of data:

- **per-category event counters** — coarse categories counted through
  :meth:`SimProfiler.count`: ``"tx"`` per transmitted packet of every
  port the profiler observes (:meth:`~repro.net.port.Port.observe`), and
  from the DCTCP sender ``"timer"`` per retransmission timeout and
  ``"pacing"`` per pacing stall;
- **heap-size-over-time samples** — a
  :class:`~repro.sim.timers.PeriodicTask` records
  ``(sim_time, pending_events, cancelled_pending, events_processed,
  wall_seconds)`` every ``sample_interval`` simulated seconds, which is
  how benchmarks assert the engine's heap compaction keeps
  ``pending_events`` bounded;
- **events/sec** — executed events divided by wall-clock time between
  :meth:`start` and :meth:`stop`;
- **engine tier split** — how many executed events came from the
  timing-wheel vs. heap tier (deltas over the profiled span).

The sender's hooks sit on its timer paths and cost one attribute load
and a None check each when no profiler is attached; the packet path
carries nothing unless a port is observed.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, NamedTuple, Optional

from .engine import Simulator
from .timers import PeriodicTask

__all__ = ["HeapSample", "SimProfiler"]


class HeapSample(NamedTuple):
    """One periodic observation of engine state."""

    sim_time: float
    pending_events: int
    cancelled_pending: int
    events_processed: int
    wall_seconds: float


class SimProfiler:
    """Per-run event accounting and heap sampling.

    Typical use::

        sim = Simulator()
        profiler = SimProfiler(sim, sample_interval=1e-3)
        profiler.start()
        ...build scenario; port.observe(profiler) for every port...
        ...sim.run(until=...)...
        profiler.stop()
        print(profiler.report())
    """

    def __init__(self, sim: Simulator, sample_interval: float = 1e-3):
        self.sim = sim
        self.counters: Dict[str, int] = {}
        self.samples: List[HeapSample] = []
        self._task = PeriodicTask(sim, sample_interval, self._sample)
        self._wall_start: Optional[float] = None
        self._wall_elapsed = 0.0
        self._events_start = 0
        self._events_at_stop: Optional[int] = None
        self._wheel_start = 0
        self._wheel_at_stop: Optional[int] = None
        self._heap_start = 0
        self._heap_at_stop: Optional[int] = None
        sim.profiler = self

    # -- counters (the hot-path entry point) ------------------------------

    def count(self, category: str, n: int = 1) -> None:
        """Add ``n`` occurrences of ``category`` (creates it on first use)."""
        counters = self.counters
        counters[category] = counters.get(category, 0) + n

    def departed(self, port, queue_index: int, packet) -> None:
        """Port observer: one ``"tx"`` per transmitted packet."""
        self.count("tx")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin wall-clock accounting and periodic heap sampling."""
        if self._wall_start is not None:
            return
        self._wall_start = _time.perf_counter()
        self._events_start = self.sim.events_processed
        self._events_at_stop = None
        self._wheel_start = self.sim.wheel_events_processed
        self._wheel_at_stop = None
        self._heap_start = self.sim.heap_events_processed
        self._heap_at_stop = None
        self._task.start()

    def stop(self) -> None:
        """Freeze the wall clock and stop sampling.  Idempotent."""
        self._task.stop()
        if self._wall_start is not None:
            self._wall_elapsed += _time.perf_counter() - self._wall_start
            self._wall_start = None
            self._events_at_stop = self.sim.events_processed
            self._wheel_at_stop = self.sim.wheel_events_processed
            self._heap_at_stop = self.sim.heap_events_processed

    def detach(self) -> None:
        """Stop and disconnect from the simulator's hot-path hook."""
        self.stop()
        if self.sim.profiler is self:
            self.sim.profiler = None

    def _sample(self) -> None:
        sim = self.sim
        self.samples.append(HeapSample(
            sim_time=sim.now,
            pending_events=sim.pending_events,
            cancelled_pending=sim.cancelled_pending,
            events_processed=sim.events_processed,
            wall_seconds=self._wall(),
        ))

    # -- derived views -----------------------------------------------------

    def _wall(self) -> float:
        elapsed = self._wall_elapsed
        if self._wall_start is not None:
            elapsed += _time.perf_counter() - self._wall_start
        return elapsed

    @property
    def events_executed(self) -> int:
        """Events executed between :meth:`start` and :meth:`stop` (or now)."""
        end = self._events_at_stop
        if end is None:
            end = self.sim.events_processed
        return end - self._events_start

    def events_per_second(self) -> float:
        """Executed events per wall-clock second over the profiled span."""
        wall = self._wall()
        if wall <= 0.0:
            return 0.0
        return self.events_executed / wall

    @property
    def wheel_events_executed(self) -> int:
        """Events executed out of the timing-wheel tier over the span."""
        end = self._wheel_at_stop
        if end is None:
            end = self.sim.wheel_events_processed
        return end - self._wheel_start

    @property
    def heap_events_executed(self) -> int:
        """Events executed out of the heap tier over the span."""
        end = self._heap_at_stop
        if end is None:
            end = self.sim.heap_events_processed
        return end - self._heap_start

    @property
    def max_pending_events(self) -> int:
        """Largest sampled heap size (0 when nothing was sampled)."""
        if not self.samples:
            return 0
        return max(sample.pending_events for sample in self.samples)

    def report(self) -> str:
        """Plain-text summary of counters, throughput and heap behaviour."""
        sim = self.sim
        lines = ["simulation profile"]
        lines.append(f"  events executed : {self.events_executed}")
        lines.append(f"  events/sec      : {self.events_per_second():,.0f}")
        executed = self.events_executed
        if executed:
            wheel = self.wheel_events_executed
            heap = self.heap_events_executed
            lines.append(
                f"  tier split      : wheel {wheel} "
                f"({100.0 * wheel / executed:.1f}%) / heap {heap} "
                f"({100.0 * heap / executed:.1f}%)"
            )
        lines.append(f"  heap compactions: {sim.compactions}")
        lines.append(f"  cancelled in heap: {sim.cancelled_pending}")
        if self.counters:
            lines.append("  event categories:")
            for category in sorted(self.counters):
                lines.append(f"    {category:8s}: {self.counters[category]}")
        if self.samples:
            pendings = [sample.pending_events for sample in self.samples]
            lines.append(
                f"  heap size       : min {min(pendings)} / "
                f"mean {sum(pendings) / len(pendings):.0f} / "
                f"max {max(pendings)} over {len(pendings)} samples"
            )
        return "\n".join(lines)
