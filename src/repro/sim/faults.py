"""Deterministic fault injection — the chaos layer.

The paper evaluates PMSB on a pristine fabric, but its core claim —
flows in un-congested queues are protected from collateral ECN
back-off — is exactly the property worth stress-testing when links
lose, corrupt, or flap packets.  This module injects those faults
*deterministically*: every loss draw comes from a dedicated seeded RNG
stream (one per faulted link, derived via :mod:`repro.sim.rng` from the
experiment seed, the spec's salt and the link name), so a chaos run is
exactly as reproducible as a clean one — byte-identical across worker
counts, across resume, and across the fast/slow engine paths.

Fault models
------------

- ``"iid-loss"`` — independent Bernoulli loss at probability ``rate``
  per packet (the classic random-loss wire).
- ``"gilbert-elliott"`` — the two-state burst-loss channel: transitions
  good→bad with probability ``p`` and bad→good with ``r`` per packet,
  losing packets with probability ``h`` in the bad state and ``k`` in
  the good state.  Every packet consumes exactly two draws (one
  transition, one loss), so the stream stays aligned regardless of
  outcomes.
- ``"crc-corrupt"`` — the packet is corrupted on the wire with
  probability ``rate`` and discarded by the *receiving* port after full
  propagation (a CRC check happens on arrival, not at the transmitter).
  The loss is charged to the link the moment the corruption is decided
  so counters never go backwards.
- ``"flap"`` — a timed down/up schedule (no RNG): the link goes down at
  ``start + down`` and back up at ``start + up``, repeating every
  ``period`` seconds (0 = once) until ``stop``.

Loss models attach to :class:`~repro.net.link.Link` objects (the link
consults ``link.fault`` per delivered packet); flaps drive the existing
``set_down``/``set_up`` hooks through simulator events.  A
:class:`FaultScheduler` owns the specs, resolves link selectors against
a built :class:`~repro.net.topology.Network`, installs/uninstalls loss
models at their ``start``/``stop`` times, and reports per-link drop
statistics afterwards.

Determinism guarantees
----------------------

- Draws happen at ``Link.deliver()`` time, and the engine fires
  delivery events in an identical order on the optimized and
  ``REPRO_SLOW_PATH`` reference paths, so both paths see identical loss
  patterns.
- Per-link streams are derived as
  ``stable_hash(seed, spec.salt, sha256(link.name))`` — independent of
  process, platform, worker count and attachment order.
- :meth:`FaultSpec.to_param` renders a spec as nested tuples of JSON
  scalars, so specs hash into
  :class:`~repro.store.ExperimentSpec` params and chaos sweeps
  cache/resume byte-identically.
"""

from __future__ import annotations

import fnmatch
from dataclasses import asdict, dataclass, fields
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from .._specparse import parse_spec
from .engine import Simulator
from .rng import make_rng, stable_digest, stable_hash

if TYPE_CHECKING:  # pragma: no cover
    from ..net.link import Link
    from ..net.topology import Network

__all__ = [
    "FAULT_MODELS",
    "FaultScheduler",
    "FaultSpec",
    "loss_spec",
]

#: Recognized fault models (``FaultSpec.model`` values).
FAULT_MODELS = ("iid-loss", "gilbert-elliott", "crc-corrupt", "flap")

#: ``classify()`` verdicts consumed by :meth:`repro.net.link.Link.deliver`.
DELIVER = 0
DROP_WIRE = 1
DROP_CRC = 2


# -- fault specification ------------------------------------------------------

def _stop(value: str) -> Optional[float]:
    return None if value.lower() in ("none", "inf") else float(value)


#: How ``FaultSpec.parse`` reads each field: ``links`` stays a string,
#: ``salt`` is an int, ``stop=none`` means forever, the rest are floats.
_CONVERTERS = {"links": str, "salt": int, "stop": _stop,
               **dict.fromkeys(("rate", "p", "r", "h", "k", "down", "up",
                                "period", "start"), float)}


@dataclass(frozen=True)
class FaultSpec:
    """One fault, declaratively: what, where, when, and which RNG salt.

    A spec is pure data (hashable, JSON-able via :meth:`to_param`), so
    it can ride inside an :class:`~repro.store.ExperimentSpec` — two
    runs with equal specs and seeds replay identical faults.

    Fields not used by a model keep their defaults and are validated
    only where meaningful (e.g. ``rate`` for ``iid-loss`` and
    ``crc-corrupt``; ``p/r/h/k`` for ``gilbert-elliott``; ``down``,
    ``up`` and ``period`` for ``flap``).
    """

    model: str
    #: Link selector: an ``fnmatch`` pattern over link names (see
    #: :mod:`repro.net.topology` for the naming convention, e.g.
    #: ``"sw0->recv"``, ``"leaf*->spine*"``), or the special selector
    #: ``"bottleneck"`` for the network's bottleneck link.
    links: str = "*"
    #: Loss/corruption probability per packet (iid-loss, crc-corrupt).
    rate: float = 0.0
    #: Gilbert-Elliott transition and loss probabilities.
    p: float = 0.0
    r: float = 0.0
    h: float = 1.0
    k: float = 0.0
    #: Flap schedule, relative to ``start``: down at ``start + down``,
    #: up at ``start + up``, repeating every ``period`` seconds (0 =
    #: one flap only).
    down: float = 0.0
    up: float = 0.0
    period: float = 0.0
    #: Active window in simulated seconds; ``stop=None`` means forever.
    start: float = 0.0
    stop: Optional[float] = None
    #: Extra RNG salt: two otherwise-identical specs with different
    #: salts draw from independent streams.
    salt: int = 0

    def __post_init__(self):
        if self.model not in FAULT_MODELS:
            raise ValueError(f"unknown fault model {self.model!r}; "
                             f"choose from {FAULT_MODELS}")
        if self.model in ("iid-loss", "crc-corrupt"):
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(f"{self.model}: rate must be in [0, 1], "
                                 f"got {self.rate!r}")
        if self.model == "gilbert-elliott":
            for name in ("p", "r", "h", "k"):
                value = getattr(self, name)
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"gilbert-elliott: {name} must be in "
                                     f"[0, 1], got {value!r}")
        if self.model == "flap":
            if self.down < 0.0 or self.up <= self.down:
                raise ValueError("flap: need 0 <= down < up "
                                 f"(got down={self.down!r}, up={self.up!r})")
            if self.period != 0.0 and self.period < self.up:
                raise ValueError("flap: period must be 0 (one flap) or "
                                 ">= up, got {self.period!r}")
        if self.start < 0.0:
            raise ValueError(f"start cannot be negative: {self.start!r}")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError(f"stop ({self.stop!r}) must be after start "
                             f"({self.start!r}) or None")

    def to_param(self) -> Tuple[Tuple[str, Any], ...]:
        """Canonical nested-tuple form for ``ExperimentSpec`` params.

        Sorted ``(field, value)`` pairs of JSON scalars — stable under
        :func:`~repro.sim.rng.stable_digest` and recoverable through
        the store's canonical round trip (:meth:`from_param`).
        """
        return tuple(sorted(asdict(self).items()))

    @classmethod
    def from_param(cls, pairs: Iterable[Sequence[Any]]) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_param` output (tuples or the
        JSON lists a stored record round-trips them into)."""
        data = {str(key): value for key, value in pairs}
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI spelling ``model:key=value,key=value``.

        Example: ``iid-loss:rate=0.001,links=leaf*->spine*``.  Values
        are coerced by field: ``links`` stays a string, ``salt`` is an
        int, ``stop=none`` means forever, everything else is a float.
        """
        model, kwargs = parse_spec(text, "fault", _CONVERTERS)
        try:
            return cls(model=model, **kwargs)
        except TypeError as exc:
            raise ValueError(f"bad fault spec {text!r}: {exc}") from None


def loss_spec(model: str, rate: float, links: str = "*",
              salt: int = 0) -> FaultSpec:
    """A loss-model spec with one knob: the average per-packet loss rate.

    For ``iid-loss`` and ``crc-corrupt`` this is simply ``rate``.  For
    ``gilbert-elliott`` the burst shape is fixed (recovery ``r`` = 0.25,
    bad-state loss ``h`` = 0.5, good-state loss ``k`` = 0) and ``p`` is
    solved so the stationary loss probability ``h·p/(p+r)`` equals
    ``rate`` — chaos sweeps compare models at matched average loss.
    """
    if model == "flap":
        raise ValueError("loss_spec() builds loss models; construct flap "
                         "FaultSpecs directly")
    if model == "gilbert-elliott":
        r, h = 0.25, 0.5
        if not 0.0 <= rate < h:
            raise ValueError(f"gilbert-elliott average loss must be in "
                             f"[0, {h}), got {rate!r}")
        p = rate * r / (h - rate) if rate > 0.0 else 0.0
        return FaultSpec(model=model, links=links, p=p, r=r, h=h, k=0.0,
                         salt=salt)
    return FaultSpec(model=model, links=links, rate=rate, salt=salt)


# -- runtime loss models ------------------------------------------------------

class _IidLoss:
    """Independent Bernoulli loss: one draw per packet."""

    __slots__ = ("rng", "rate")

    def __init__(self, rng, rate: float):
        self.rng = rng
        self.rate = rate

    def classify(self) -> int:
        return DROP_WIRE if self.rng.random() < self.rate else DELIVER


class _GilbertElliott:
    """Two-state burst loss.  Exactly two draws per packet (transition
    then loss) so the stream never decoheres between outcomes."""

    __slots__ = ("rng", "p", "r", "h", "k", "bad")

    def __init__(self, rng, p: float, r: float, h: float, k: float):
        self.rng = rng
        self.p = p
        self.r = r
        self.h = h
        self.k = k
        self.bad = False

    def classify(self) -> int:
        rng = self.rng
        transition = rng.random()
        if self.bad:
            if transition < self.r:
                self.bad = False
        elif transition < self.p:
            self.bad = True
        loss = self.h if self.bad else self.k
        return DROP_WIRE if rng.random() < loss else DELIVER


class _CrcCorruption:
    """Wire corruption: decided per packet, discarded at the receiving
    port after full propagation."""

    __slots__ = ("rng", "rate")

    def __init__(self, rng, rate: float):
        self.rng = rng
        self.rate = rate

    def classify(self) -> int:
        return DROP_CRC if self.rng.random() < self.rate else DELIVER


def _build_model(spec: FaultSpec, rng):
    if spec.model == "iid-loss":
        return _IidLoss(rng, spec.rate)
    if spec.model == "gilbert-elliott":
        return _GilbertElliott(rng, spec.p, spec.r, spec.h, spec.k)
    if spec.model == "crc-corrupt":
        return _CrcCorruption(rng, spec.rate)
    raise ValueError(f"{spec.model!r} is not a loss model")


def _link_token(name: str) -> int:
    """A process-stable 64-bit token for a link name (never ``hash``)."""
    return int(stable_digest(name)[:16], 16)


def network_links(network: "Network") -> List["Link"]:
    """Every link of a built topology, in deterministic build order
    (switch ports first, then host NICs)."""
    links: List["Link"] = []
    for switch in network.switches:
        for port in switch.ports:
            links.append(port.link)
    for host in network.hosts:
        if host.nic is not None:
            links.append(host.nic.link)
    return links


# -- orchestration ------------------------------------------------------------

class FaultScheduler:
    """Installs a set of :class:`FaultSpec` onto a fabric's links.

    Construct with the simulator, the specs and the experiment seed,
    then call :meth:`apply` once the topology exists.  Loss models are
    installed at each spec's ``start`` and removed at ``stop`` via
    simulator events; flap schedules drive ``set_down``/``set_up``
    directly.  At most one loss model may target a given link (faults
    on a wire do not compose); any number of flap specs may.

    :meth:`stats` reports the per-link drop breakdown afterwards —
    the counters live on the links themselves
    (:attr:`~repro.net.link.Link.loss_breakdown`), so they stay
    consistent with what the :class:`~repro.sim.audit.FabricAuditor`
    cross-checks.
    """

    def __init__(self, sim: Simulator, specs: Sequence[FaultSpec],
                 seed: int = 0):
        self.sim = sim
        self.specs = tuple(specs)
        self.seed = seed
        #: Links touched by any spec, in selection order (deduplicated).
        self.faulted_links: List["Link"] = []
        #: Scheduled flap transitions (down/up pairs counted once).
        self.flaps_scheduled = 0
        self._loss_owner: Dict[int, FaultSpec] = {}
        self._applied = False

    # -- selection ---------------------------------------------------------

    @staticmethod
    def select_links(links: Sequence["Link"], selector: str,
                     network: Optional["Network"] = None) -> List["Link"]:
        """Resolve one spec's ``links`` selector to concrete links."""
        if selector == "bottleneck":
            observed = [] if network is None else network.observed_ports("bottleneck")
            if not observed:
                raise ValueError(
                    "selector 'bottleneck' needs a network with "
                    "'bottleneck'-role observed ports")
            return [port.link for port in observed]
        if selector == "all":
            return list(links)
        return [link for link in links
                if fnmatch.fnmatchcase(link.name, selector)]

    # -- installation ------------------------------------------------------

    def apply(self, network: Optional["Network"] = None,
              links: Optional[Sequence["Link"]] = None) -> None:
        """Resolve selectors and schedule every fault.

        Pass the built ``network`` (usual case) or an explicit ``links``
        sequence (unit tests on bare links).  Idempotence is not a goal:
        applying twice is an error, as is a selector matching no link.
        """
        if self._applied:
            raise RuntimeError("FaultScheduler.apply() called twice")
        self._applied = True
        if links is None:
            if network is None:
                raise ValueError("apply() needs a network or a links list")
            links = network_links(network)
        seen = set()
        for spec in self.specs:
            targets = self.select_links(links, spec.links, network)
            if not targets:
                raise ValueError(
                    f"fault selector {spec.links!r} matches no link "
                    f"(known: {[link.name for link in links]})")
            for link in targets:
                if id(link) not in seen:
                    seen.add(id(link))
                    self.faulted_links.append(link)
                if spec.model == "flap":
                    self._schedule_flap(link, spec)
                else:
                    self._schedule_loss(link, spec)

    def _stream(self, spec: FaultSpec, link: "Link"):
        """The dedicated RNG stream for (seed, spec.salt, link)."""
        return make_rng(stable_hash(self.seed, spec.salt,
                                    _link_token(link.name)))

    def _schedule_loss(self, link: "Link", spec: FaultSpec) -> None:
        owner = self._loss_owner.get(id(link))
        if owner is not None:
            raise ValueError(
                f"link {link.name!r} already carries a loss model "
                f"({owner.model}); loss faults do not compose")
        self._loss_owner[id(link)] = spec
        model = _build_model(spec, self._stream(spec, link))

        def install() -> None:
            link.fault = model

        def uninstall() -> None:
            if link.fault is model:
                link.fault = None

        if spec.start <= self.sim.now:
            install()
        else:
            self.sim.at(spec.start, install)
        if spec.stop is not None:
            self.sim.at(spec.stop, uninstall)

    def _schedule_flap(self, link: "Link", spec: FaultSpec) -> None:
        stop = spec.stop

        def one_cycle(base: float) -> None:
            down_t = base + spec.down
            if stop is not None and down_t >= stop:
                return
            self.flaps_scheduled += 1
            self.sim.at(down_t, link.set_down)
            self.sim.at(base + spec.up, link.set_up)
            if spec.period > 0.0:
                # Lazily self-rescheduling: one pending event per link
                # regardless of how long the run lasts.
                self.sim.at(base + spec.period, one_cycle,
                            base + spec.period)

        one_cycle(spec.start)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Deterministic drop accounting over the faulted links.

        ``{"links": {name: {"delivered", "lost", "breakdown"}},
        "drops": {reason: total}}`` with names sorted and zero-count
        reasons omitted, so the payload is byte-stable under JSON
        export.
        """
        links: Dict[str, Any] = {}
        totals: Dict[str, int] = {}
        for link in sorted(self.faulted_links, key=lambda link: link.name):
            breakdown = {reason: count for reason, count
                         in link.loss_breakdown.items() if count}
            links[link.name] = {
                "delivered": link.packets_delivered,
                "lost": link.packets_lost,
                "breakdown": breakdown,
            }
            for reason, count in breakdown.items():
                totals[reason] = totals.get(reason, 0) + count
        return {"links": links,
                "drops": {k: totals[k] for k in sorted(totals)}}
