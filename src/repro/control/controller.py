"""Closed-loop threshold controllers.

The paper freezes PMSB's port threshold ``K = C·RTT·λ`` at marker
construction; its own §VI sensitivity analysis (and PET's RL tuner in
the related work) show the optimum moves with load.  This module closes
the loop deterministically: a :class:`ControllerRuntime` samples every
marked port on a fixed period (through
:class:`~repro.control.observation.PortSampler`), hands each
:class:`~repro.control.observation.ObservationVector` to a
:class:`ThresholdController`, and stages whatever threshold changes the
controller returns through the marker's
:meth:`~repro.ecn.base.Marker.set_thresholds` surface — so changes land
at packet boundaries and the fabric auditor's
``marker-threshold-boundary`` rule holds by construction.

Two controllers ship:

- ``theorem`` (:class:`TheoremController`): the deterministic baseline.
  Re-evaluates the Theorem IV.1 port-threshold lower bound
  ``C·RTT/7`` from the *observed* RTT (EWMA over transport samples)
  and the port's weight vector, scaled by ``margin``.
- ``cem`` (:class:`CemController`): the policy vehicle of the
  cross-entropy optimizer (:mod:`repro.control.cem`).  In-run it applies
  a two-phase piecewise-constant port-threshold schedule ``k0 → k1`` at
  ``t1``; the schedule itself is what
  :func:`~repro.control.cem.cross_entropy_search` optimizes over the
  sweep grid, with every candidate evaluation cached in the
  content-addressed run store (the X-AUTOTUNE family).

A :class:`ControllerSpec` is the declarative, hashable identity of a
controller configuration: it parses from the CLI's
``--controller name:key=val,...`` grammar, renders to canonical tuples
for :class:`~repro.store.ExperimentSpec` params, and builds the live
controller.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

from .._specparse import parse_spec
from ..core.analysis import port_threshold_lower_bound

if TYPE_CHECKING:  # pragma: no cover
    from ..net.port import Port
    from ..sim.engine import Simulator
    from .observation import ObservationVector

__all__ = ["ControllerSpec", "ThresholdController", "TheoremController",
           "CemController", "ControllerRuntime"]

CONTROLLER_NAMES = ("theorem", "cem")

#: Keys a controller retunes, in preference order: PMSB's port
#: threshold, then the single-threshold schemes.  Schemes exposing
#: neither (MQ-ECN, TCN, phantom, per-queue vectors) are left alone by
#: the shipped controllers.
_PORT_THRESHOLD_KEYS = ("port_threshold_packets", "threshold_packets")


def _threshold_key(marker) -> Optional[str]:
    current = marker.thresholds()
    for key in _PORT_THRESHOLD_KEYS:
        if key in current:
            return key
    return None


@dataclass(frozen=True)
class ControllerSpec:
    """Declarative controller configuration (CLI / store identity).

    ``parse``/``to_param``/``from_param`` follow the
    :class:`~repro.sim.faults.FaultSpec` conventions exactly: the spec
    is a frozen, validated value object whose canonical tuple form
    hashes into :class:`~repro.store.ExperimentSpec` params.
    """

    name: str
    #: Sampling/evaluation period (seconds).
    period: float = 500e-6
    # -- theorem --
    #: Safety factor over the Theorem IV.1 lower bound.
    margin: float = 1.0
    #: Minimum port threshold (packets) the controller will ever set.
    floor: float = 1.0
    # -- cem (piecewise schedule) --
    #: Phase switch time (seconds); 0 means "k1 from the start".
    t1: float = 0.0
    #: Port threshold (packets) before / after ``t1``.
    k0: float = 12.0
    k1: float = 12.0

    def __post_init__(self):
        if self.name not in CONTROLLER_NAMES:
            raise ValueError(
                f"unknown controller {self.name!r}; choose from "
                f"{CONTROLLER_NAMES}")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.floor < 0:
            raise ValueError("floor cannot be negative")
        if self.t1 < 0:
            raise ValueError("t1 cannot be negative")
        if self.k0 < 0 or self.k1 < 0:
            raise ValueError("thresholds cannot be negative")

    @property
    def wants_rtt(self) -> bool:
        """Does this controller consume transport RTT samples?"""
        return self.name == "theorem"

    def build(self) -> "ThresholdController":
        if self.name == "theorem":
            return TheoremController(margin=self.margin, floor=self.floor)
        return CemController(t1=self.t1, k0=self.k0, k1=self.k1)

    def to_param(self) -> Tuple[Tuple[str, Any], ...]:
        """Canonical, hashable form for ``ExperimentSpec`` params."""
        return tuple(sorted(asdict(self).items()))

    @classmethod
    def from_param(cls, pairs: Sequence[Tuple[str, Any]]) -> "ControllerSpec":
        fields = dict(pairs)
        unknown = set(fields) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown controller fields {sorted(unknown)}")
        return cls(**fields)

    @classmethod
    def parse(cls, text: str) -> "ControllerSpec":
        """Parse the CLI grammar ``name:key=val,key=val``.

        Example: ``theorem:period=0.0005,margin=1.5`` or
        ``cem:t1=0.01,k0=12,k1=24``.
        """
        name, fields = parse_spec(text, "controller", dict.fromkeys(
            set(cls.__dataclass_fields__) - {"name"}, float))
        try:
            return cls(name=name, **fields)
        except TypeError as exc:
            raise ValueError(str(exc)) from None


class ThresholdController:
    """One controller decision per (port, period).

    :meth:`update` returns the threshold changes to stage on the port's
    marker — a dict of :meth:`~repro.ecn.base.Marker.set_thresholds`
    keyword arguments — or None for "leave it alone".  Implementations
    must be deterministic functions of the observation stream: the run
    store caches controller runs by spec, so a non-deterministic
    controller would poison the cache.
    """

    name = "base"

    def update(self, observation: "ObservationVector",
               port: "Port") -> Optional[Dict[str, Any]]:
        raise NotImplementedError


class TheoremController(ThresholdController):
    """Theorem IV.1 closed loop: ``K = margin × C·RTT_obs / 7``.

    Tracks an EWMA of observed RTTs per port and re-derives the
    analytic port-threshold lower bound each period.  With no RTT
    samples yet (transports not recording, or no ACKs in the window)
    it holds the current threshold.
    """

    name = "theorem"

    def __init__(self, margin: float = 1.0, floor: float = 1.0,
                 beta: float = 0.25):
        self.margin = margin
        self.floor = floor
        #: EWMA gain applied to each window's mean RTT sample.
        self.beta = beta
        self._rtt_ewma: Dict[str, float] = {}

    def update(self, observation, port):
        key = _threshold_key(port.marker)
        if key is None:
            return None
        samples = observation.rtt_samples
        ewma = self._rtt_ewma.get(observation.port)
        if samples:
            window_mean = sum(samples) / len(samples)
            if ewma is None:
                ewma = window_mean
            else:
                ewma += self.beta * (window_mean - ewma)
            self._rtt_ewma[observation.port] = ewma
        if ewma is None:
            return None
        bound = port_threshold_lower_bound(
            port.weights, observation.capacity_bps, ewma)
        target = max(self.floor, self.margin * bound)
        if target == port.marker.thresholds()[key]:
            return None
        return {key: target}


class CemController(ThresholdController):
    """Piecewise-constant schedule ``k0 → k1`` at ``t1``.

    The in-run form of a cross-entropy candidate: the outer optimizer
    (:func:`~repro.control.cem.cross_entropy_search`) searches the
    ``(k0, k1)`` plane over the sweep grid; each candidate rides this
    controller through a store-cached run.
    """

    name = "cem"

    def __init__(self, t1: float = 0.0, k0: float = 12.0, k1: float = 12.0):
        self.t1 = t1
        self.k0 = k0
        self.k1 = k1

    def update(self, observation, port):
        key = _threshold_key(port.marker)
        if key is None:
            return None
        target = self.k0 if observation.time < self.t1 else self.k1
        if target == port.marker.thresholds()[key]:
            return None
        return {key: float(target)}


class ControllerRuntime:
    """Periodic evaluation loop binding one controller to a fabric.

    Schedules itself on the simulator every ``period`` seconds; each
    tick samples every managed port and stages the controller's changes
    through ``set_thresholds`` (committed by the markers at the next
    packet boundary).  RTT samples come from registered sources — any
    object exposing a growing ``rtt_samples`` list (DCTCP senders
    opened with ``record_rtt=True``); each tick consumes only the new
    tail, fabric-wide, and hands the same window to every port's
    observation.
    """

    def __init__(self, sim: "Simulator", ports: Sequence["Port"],
                 controller: ThresholdController, period: float):
        from .observation import PortSampler
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.controller = controller
        self.period = period
        self.ports = [port for port in ports]
        self.samplers = [PortSampler(port) for port in self.ports]
        self._rtt_sources: List[Any] = []
        self._rtt_consumed: List[int] = []
        #: Evaluation ticks performed / threshold batches staged.
        self.ticks = 0
        self.changes_staged = 0
        self._running = False

    def add_rtt_source(self, source: Any) -> None:
        """Register a sender whose ``rtt_samples`` list feeds the loop."""
        if getattr(source, "rtt_samples", None) is not None:
            self._rtt_sources.append(source)
            self._rtt_consumed.append(0)

    def start(self) -> None:
        """Schedule the first tick (idempotent)."""
        if not self._running:
            self._running = True
            self.sim.at(self.sim.now + self.period, self._tick)

    def stop(self) -> None:
        """Stop rescheduling after the next pending tick fires."""
        self._running = False

    def _drain_rtt(self) -> Tuple[float, ...]:
        fresh: List[float] = []
        for i, source in enumerate(self._rtt_sources):
            samples = source.rtt_samples
            consumed = self._rtt_consumed[i]
            if len(samples) > consumed:
                fresh.extend(samples[consumed:])
                self._rtt_consumed[i] = len(samples)
        return tuple(fresh)

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        window_rtts = self._drain_rtt()
        for port, sampler in zip(self.ports, self.samplers):
            observation = sampler.sample(now, window_rtts)
            changes = self.controller.update(observation, port)
            if changes:
                port.marker.set_thresholds(**changes)
                self.changes_staged += 1
        self.ticks += 1
        self.sim.at(now + self.period, self._tick)

    def stats(self) -> Dict[str, int]:
        """Provenance payload: how hard the loop actually worked."""
        return {"ticks": self.ticks, "changes_staged": self.changes_staged,
                "ports": len(self.ports),
                "rtt_sources": len(self._rtt_sources)}


def build_runtime(sim: "Simulator", network,
                  spec: ControllerSpec) -> ControllerRuntime:
    """Wire a spec'd controller over a built network's marked ports."""
    runtime = ControllerRuntime(
        sim, network.all_marked_ports(), spec.build(), spec.period)
    runtime.start()
    return runtime
