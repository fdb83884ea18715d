"""Discrete-event simulation engine (event loop, timers, deterministic RNG)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Event, SimulationError, Simulator
    from .audit import FabricAuditor, InvariantViolation
    from .faults import FAULT_MODELS, FaultScheduler, FaultSpec, loss_spec
    from .profile import HeapSample, SimProfiler
    from .rng import make_rng, spawn, stable_hash
    from .timers import PeriodicTask, Timer

_EXPORTS = {
    ".engine": ("Event", "SimulationError", "Simulator"),
    ".audit": ("FabricAuditor", "InvariantViolation"),
    ".faults": ("FAULT_MODELS", "FaultScheduler", "FaultSpec", "loss_spec"),
    ".profile": ("HeapSample", "SimProfiler"),
    ".rng": ("make_rng", "spawn", "stable_hash"),
    ".timers": ("PeriodicTask", "Timer"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
