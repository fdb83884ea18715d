"""Experiment identity: :class:`ExperimentSpec` and :class:`RunConfig`.

Two dataclasses carry everything the harness previously threaded through
scattered keyword arguments:

- :class:`RunConfig` — *how* to run: duration, scale profile, seed,
  worker processes, auditing, event profiling, the run-store knobs
  (``cache_dir`` / ``resume`` / ``force``) and the fabric extensions
  (``faults`` / ``shared_buffer`` / ``controller`` / ``topology``).  It
  is the only carrier of configuration — no module holds a default —
  and every experiment entry point accepts ``config=RunConfig(...)``.
- :class:`ExperimentSpec` — *what* was run: the canonical identity of
  one experiment point (experiment name, scheme, scheduler, load, seed,
  scale-profile physics, audit flag, extra parameters, schema/code
  version).  :meth:`ExperimentSpec.key` hashes the canonical form with
  :func:`repro.sim.rng.stable_digest`, so the same point gets the same
  key in every process, at every ``--jobs`` level, on every platform —
  the content address the run store files records under.

:func:`check_compatibility` sits beside :class:`RunConfig` because it
judges its knobs: the one table of execution features (shards,
controller, …) no runner can honour together.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import (TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..sim.rng import stable_digest

if TYPE_CHECKING:  # pragma: no cover
    from ..control.controller import ControllerSpec
    from ..net.sharedbuf import SharedBufferSpec
    from ..net.topology import TopologySpec
    from ..sim.faults import FaultSpec

__all__ = ["ExperimentSpec", "RunConfig", "SPEC_SCHEMA_VERSION",
           "check_compatibility", "extension_params"]

#: Bump when the meaning of stored results changes (different statistics,
#: different simulation semantics…): old records stop matching and
#: ``repro runs gc`` reclaims them.
SPEC_SCHEMA_VERSION = 1

#: Version stamp baked into every spec so a cache populated by one code
#: release is never silently reused by an incompatible one.
CODE_VERSION = "1.0.0"

#: ScaleProfile fields that change the *identity* of a point.  ``loads``
#: is the sweep set (each point already carries its own ``load``) and
#: ``jobs`` is pure execution mechanics — including either would make
#: cache keys depend on how the sweep was launched instead of what it
#: simulated, defeating resume at a different ``--jobs`` level.
_PROFILE_IDENTITY_FIELDS = ("name", "link_rate", "static_duration",
                            "fabric", "largescale_flows", "size_scale",
                            "time_cap")


@dataclass(frozen=True)
class RunConfig:
    """How to execute an experiment (vs. *what* it is — see
    :class:`ExperimentSpec`).

    Every field is optional; ``None`` means "use the callee's default",
    so one ``RunConfig`` can be threaded through heterogeneous entry
    points without clobbering their individual defaults.
    """

    #: Simulated seconds for static experiments.
    duration: Optional[float] = None
    #: Scale profile (TINY/BENCH/PAPER or a custom ScaleProfile).
    profile: Optional[Any] = None
    #: Base workload seed.
    seed: Optional[int] = None
    #: Worker processes for sweeps (1 = serial, 0 = all cores).
    jobs: Optional[int] = None
    #: Attach the fabric invariant auditor.
    audit: Optional[bool] = None
    #: Print a per-run event/heap profile.
    profile_events: bool = False
    #: Root directory of the content-addressed run store (None = off).
    cache_dir: Optional[str] = None
    #: Reuse completed points found in the store.
    resume: bool = True
    #: Recompute (and overwrite) even when a stored record exists.
    force: bool = False
    #: Shards for conservative-lookahead parallel execution of a single
    #: scenario (None / 1 = classic single-process run).
    shards: Optional[int] = None
    #: Faults injected into every fabric the run builds (``--faults``).
    faults: Optional[Sequence[FaultSpec]] = None
    #: Switch-wide shared memory every switch's ports draw from
    #: (``--shared-buffer``; None = private per-port buffers).
    shared_buffer: Optional[SharedBufferSpec] = None
    #: Closed-loop threshold controller attached to every fabric
    #: (``--controller``).
    controller: Optional[ControllerSpec] = None
    #: Fabric to build instead of the runner's own default
    #: (``--topology``; a spec or its ``preset:key=val`` spelling).
    topology: Union[str, TopologySpec, None] = None

    def __post_init__(self) -> None:
        # The numeric execution knobs are checked once, here, so a bad
        # value fails before any runner reads it (the CLI prints the
        # message as its one ``error:`` line).
        if self.duration is not None and not (
                math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"--duration: must be a finite number of "
                             f"seconds > 0, got {self.duration!r}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"--shards: must be at least 1, got "
                             f"{self.shards!r}")
        if self.jobs is not None and self.jobs < 0:
            raise ValueError(f"--jobs: must be 0 (all cores) or a positive "
                             f"worker count, got {self.jobs!r}")

    def resolve(self, **explicit: Any) -> Tuple[Any, ...]:
        """The one resolution rule, applied once by each runner: an
        explicit per-call argument wins, None means this config's field
        of the same name.  ``faults, topology = config.resolve(
        faults=faults, topology=topology)``."""
        return tuple(value if value is not None else getattr(self, name)
                     for name, value in explicit.items())

    def evolve(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


#: Feature pairs no runner can honour together — one row, one message
#: per cell.  ``shards``/``controller`` apply to every runner; the rest
#: are runner-specific arguments.
_INCOMPATIBLE = (
    ("shards", "controller",
     "--shards: cannot combine with --controller (closed-loop controllers "
     "read and retune global state)"),
    ("shards", "profile_events",
     "--shards: cannot combine with --profile-events (per-shard counters "
     "land in provenance instead)"),
    ("shards", "trace_occupancy",
     "--shards: occupancy tracing is not supported (the observed port "
     "lives in a worker)"),
    ("shards", "record_rtt",
     "--shards: record_rtt is not supported (flow handles stay in the "
     "workers)"),
    ("shards", "single_bottleneck",
     "--shards: needs a multi-switch fabric (leaf-spine / fat-tree / "
     "clos), not single-bottleneck"),
)
_FEATURES = frozenset(name for row in _INCOMPATIBLE for name in row[:2])


def check_compatibility(**active: bool) -> None:
    """Reject feature combinations the runners cannot honour.

    Keyword names are features (``shards``, ``controller``,
    ``profile_events``, ``trace_occupancy``,
    ``record_rtt``, ``single_bottleneck``), values whether the run uses
    them.  Raises :class:`ValueError` with the
    table's message for the first unsupported pair.  ``run_incast`` and
    ``run_fct_point`` call it before building anything; the CLI reports
    a runner's ``ValueError`` through ``parser.error``, so the same text
    reaches the command line.
    """
    unknown = active.keys() - _FEATURES
    if unknown:
        raise TypeError(f"unknown feature(s) {sorted(unknown)}; "
                        f"known: {sorted(_FEATURES)}")
    for first, second, message in _INCOMPATIBLE:
        if active.get(first) and active.get(second):
            raise ValueError(message)


def extension_params(faults: Sequence[Any] = (), controller: Any = None,
                     shared_buffer: Any = None) -> Dict[str, Any]:
    """What the fabric extensions a point *resolved to* add to its spec
    params: one canonical entry per extension that is set, nothing for
    one that is not — a point without them keys exactly as it did before
    the extension existed."""
    params: Dict[str, Any] = {}
    if faults:
        params["faults"] = tuple(spec.to_param() for spec in faults)
    if controller is not None:
        params["controller"] = controller.to_param()
    if shared_buffer is not None:
        params["shared_buffer"] = shared_buffer.to_param()
    return params


def _profile_identity(profile: Any) -> Dict[str, Any]:
    """The identity-relevant slice of a ScaleProfile as a plain dict."""
    if profile is None:
        return {}
    if is_dataclass(profile) and not isinstance(profile, type):
        data = asdict(profile)
    elif isinstance(profile, Mapping):
        data = dict(profile)
    else:
        raise TypeError(f"profile must be a dataclass or mapping, got "
                        f"{type(profile)!r}")
    return {name: data[name] for name in _PROFILE_IDENTITY_FIELDS
            if name in data}


@dataclass(frozen=True)
class ExperimentSpec:
    """Canonical identity of one experiment point.

    Everything that determines the simulation's output belongs here;
    anything that merely determines *how fast* it runs (worker count,
    profiler, cache location) must not.  Two specs with equal
    :meth:`canonical` forms are the same experiment and share one
    :meth:`key` — the contract the resumable sweep machinery is built on.
    """

    #: Experiment family, e.g. ``"fct-point"`` or ``"incast-sweep"``.
    experiment: str
    #: Marking scheme name (``"pmsb"``, ``"tcn"``…).
    scheme: str = ""
    #: Scheduler name (``"dwrr"``, ``"wfq"``…).
    scheduler: str = ""
    #: Offered load fraction (0 when not applicable).
    load: float = 0.0
    #: Workload seed.
    seed: int = 0
    #: Identity slice of the ScaleProfile (see ``_PROFILE_IDENTITY_FIELDS``).
    profile: Tuple[Tuple[str, Any], ...] = ()
    #: Whether the fabric invariant auditor rode along.
    audit: bool = False
    #: Extra experiment-specific parameters (topology, fan-in…).
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Result-schema version (see :data:`SPEC_SCHEMA_VERSION`).
    schema_version: int = SPEC_SCHEMA_VERSION
    #: Code release that produced matching results.
    code_version: str = CODE_VERSION

    @classmethod
    def create(
        cls,
        experiment: str,
        scheme: str = "",
        scheduler: str = "",
        load: float = 0.0,
        seed: int = 0,
        profile: Any = None,
        audit: bool = False,
        params: Optional[Mapping[str, Any]] = None,
    ) -> "ExperimentSpec":
        """Build a spec from rich arguments (ScaleProfile, dicts…)."""
        profile_items = tuple(sorted(_profile_identity(profile).items()))
        param_items = tuple(sorted((params or {}).items()))
        return cls(
            experiment=experiment,
            scheme=scheme,
            scheduler=scheduler,
            load=float(load),
            seed=int(seed),
            profile=profile_items,
            audit=bool(audit),
            params=param_items,
        )

    def canonical(self) -> Dict[str, Any]:
        """The spec as a plain, JSON-able, key-sorted dict."""
        data: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in ("profile", "params"):
                value = {name: item for name, item in value}
            data[spec_field.name] = value
        return data

    def key(self) -> str:
        """The content address: a stable SHA-256 over :meth:`canonical`."""
        return stable_digest(self.canonical())

    @classmethod
    def from_canonical(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`canonical` dict (store reads)."""
        kwargs = dict(data)
        for name in ("profile", "params"):
            mapping = kwargs.get(name) or {}
            kwargs[name] = tuple(
                sorted((key, _untuple(value))
                       for key, value in dict(mapping).items()))
        # JSON turns the fabric tuple into a list; normalize back.
        return cls(**kwargs)


def _untuple(value: Any) -> Any:
    """JSON round-trips tuples as lists; fold them back for equality."""
    if isinstance(value, list):
        return tuple(_untuple(item) for item in value)
    return value
