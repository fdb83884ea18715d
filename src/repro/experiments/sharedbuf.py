"""Buffer-contention experiments: marking schemes over shared memory.

The paper evaluates every marking scheme against private per-port
buffers deep enough that ECN — not loss — is the operative signal.
Real switch chips share one memory across all ports under a
buffer-sharing policy, and the interesting regimes are exactly the ones
our fig3/fig8 scenarios measure: a *victim* flow squeezed while hogs
hold the buffer, and an incast *burst* that needs headroom the hogs
would otherwise consume.  This family re-asks both questions with the
buffer as the contended resource, across:

- **sharing policy** — classic Dynamic Threshold over a grid of alphas,
  and the BShare-style queueing-delay-driven variant
  (:mod:`repro.net.sharedbuf`);
- **marking scheme** — PMSB / per-port / per-queue / MQ-ECN;
- **scheduler** — DWRR by default, WFQ selectable.

Each point runs two scenarios on a deliberately shallow shared buffer:

- **victim** (:func:`sharedbuf_point`, first half): the 1-vs-8 incast —
  how far does the lone queue-0 flow land from its DWRR fair share when
  hogs contend for the same switch memory?
- **burst absorption** (second half): the queue-0 flow runs alone for
  half the run, then a 16-flow incast bursts into queue 1 — how many of
  the burst's packets does the policy absorb instead of drop?

Rows carry the pool's own ledger (peak occupancy, policy rejections),
and the sweep is store-backed exactly like the FCT sweeps: every point
keys on its :class:`~repro.net.sharedbuf.SharedBufferSpec` params, so a
policy-parameter change re-keys only the affected points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from ..net.packet import MTU_BYTES
from ..net.sharedbuf import SharedBufferSpec
from ..net.topology import TopologySpec, as_topology
from ..sim.faults import FaultSpec
from ..store.runstore import RunStore
from ..store.spec import ExperimentSpec, RunConfig, extension_params
from ..store.sweep import cached_sweep, sweep_setup
from .scale import ScaleProfile
from .scenario import (incast_flows, make_scheme, run_incast,
                       with_duration)

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_CAPACITY",
    "DEFAULT_TARGET_DELAYS",
    "SHAREDBUF_EXPERIMENT",
    "SHAREDBUF_SCHEMES",
    "SharedBufRow",
    "default_policies",
    "run_sharedbuf_sweep",
    "sharedbuf_point",
    "sharedbuf_point_spec",
]

#: Experiment family name in the run store.
SHAREDBUF_EXPERIMENT = "sharedbuf"

#: Marking schemes compared over the shared memory (≥ 3 per the
#: experiment brief: PMSB against the conventional alternatives).
SHAREDBUF_SCHEMES = ("pmsb", "per-port", "per-queue-standard", "mq-ecn")

#: Dynamic-threshold aggressiveness grid.
DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 4.0)

#: BShare queueing-delay targets (seconds).
DEFAULT_TARGET_DELAYS = (100e-6, 200e-6)

#: Switch-wide memory in packets — shallow on purpose, so admission
#: (not marking) is the binding constraint and policies differentiate.
DEFAULT_CAPACITY = 64


def default_policies(
    capacity: int = DEFAULT_CAPACITY,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    target_delays: Sequence[float] = DEFAULT_TARGET_DELAYS,
) -> Tuple[SharedBufferSpec, ...]:
    """The default policy grid: DT across ``alphas`` + BShare across
    ``target_delays``, all at the same switch capacity."""
    return tuple(
        [SharedBufferSpec(policy="dt", capacity=capacity, alpha=alpha)
         for alpha in alphas]
        + [SharedBufferSpec(policy="bshare", capacity=capacity,
                            target_delay=delay)
           for delay in target_delays]
    )


@dataclass
class SharedBufRow:
    """One (scheme, scheduler, sharing policy) buffer-contention point."""

    scheme: str
    scheduler: str
    policy: str
    capacity: int
    alpha: float
    target_delay: float
    #: Victim scenario: the lone queue-0 flow vs 8 queue-1 hogs.
    victim_gbps: float
    hogs_gbps: float
    victim_err: float
    victim_drops: int
    #: Burst scenario: 16-flow incast into queue 1 mid-run.
    burst_drops: int
    burst_loss_fraction: float
    #: Pool ledger over the burst run.
    pool_peak: int
    pool_rejections: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme, "scheduler": self.scheduler,
            "policy": self.policy, "capacity": self.capacity,
            "alpha": self.alpha, "target_delay": self.target_delay,
            "victim_gbps": self.victim_gbps, "hogs_gbps": self.hogs_gbps,
            "victim_err": self.victim_err,
            "victim_drops": self.victim_drops,
            "burst_drops": self.burst_drops,
            "burst_loss_fraction": self.burst_loss_fraction,
            "pool_peak": self.pool_peak,
            "pool_rejections": self.pool_rejections,
        }

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "SharedBufRow":
        return cls(**{name: data[name] for name in (
            "scheme", "scheduler", "policy", "capacity", "alpha",
            "target_delay", "victim_gbps", "hogs_gbps", "victim_err",
            "victim_drops", "burst_drops", "burst_loss_fraction",
            "pool_peak", "pool_rejections")})


def _scheduler_factory(scheduler_name: str, n_queues: int):
    if scheduler_name == "dwrr":
        from ..scheduling.dwrr import DwrrScheduler
        return lambda: DwrrScheduler(n_queues)
    if scheduler_name == "wrr":
        from ..scheduling.wrr import WrrScheduler
        return lambda: WrrScheduler(n_queues)
    if scheduler_name == "wfq":
        from ..scheduling.wfq import WfqScheduler
        return lambda: WfqScheduler(n_queues)
    raise ValueError(
        f"unknown scheduler {scheduler_name!r} (use 'dwrr', 'wrr' or 'wfq')")


def _pool_stats(result) -> Tuple[int, int]:
    pools = [sw.shared_buffer for sw in result.network.switches
             if sw.shared_buffer is not None]
    if not pools:
        return 0, 0
    return (max(buf.peak_packets for buf in pools),
            sum(buf.rejections for buf in pools))


def sharedbuf_point(
    scheme_name: str,
    scheduler_name: str = "dwrr",
    shared_buffer: Optional[SharedBufferSpec] = None,
    hog_flows: int = 8,
    burst_flows: int = 16,
    link_rate: float = 10e9,
    config: Optional[RunConfig] = None,
    topology: Union[str, TopologySpec, None] = None,
) -> SharedBufRow:
    """Measure one (scheme, scheduler, policy) buffer-contention point.

    Two audited-capable incast runs on a single bottleneck whose switch
    memory is ``shared_buffer`` — this experiment's variable, so None is
    the private-buffer baseline and ``config.shared_buffer`` is not
    consulted (``config.faults`` / ``topology`` reach
    :func:`~repro.experiments.scenario.run_incast` as usual):

    - *victim*: 1 queue-0 flow vs ``hog_flows`` queue-1 flows from t=0;
      ``victim_err`` is the queue-0 distance from its DWRR fair share.
    - *burst*: the queue-0 flow warms up alone, then ``burst_flows``
      flows slam queue 1 at the half-way point; ``burst_loss_fraction``
      is the dropped share of everything queue 1 offered the port.
    """
    run_cfg = with_duration(config, 0.04).evolve(shared_buffer=None)
    duration = run_cfg.duration
    spec = shared_buffer
    scheme = make_scheme(scheme_name, link_rate=link_rate, n_queues=2)
    # A synchronized start with the default init_cwnd=16 slams
    # (1 + hog_flows) × 16 packets into the shallow shared memory at
    # t=0: every flow loses its whole window and sits out min_rto
    # (10 ms) — the run measures one synchronized collapse, not buffer
    # sharing.  Start small; congestion avoidance regrows the windows
    # into whatever the policy actually allows.
    init_cwnd = 4.0

    victim = run_incast(
        scheme, _scheduler_factory(scheduler_name, 2),
        incast_flows([1, hog_flows]),
        link_rate=link_rate, config=run_cfg, shared_buffer=spec,
        init_cwnd=init_cwnd, topology=topology,
    )
    q0, q1 = victim.queue_gbps[0], victim.queue_gbps[1]
    total = q0 + q1
    fair = total / 2.0
    victim_err = abs(q0 - fair) / fair if total else 0.0
    victim_drops = victim.network.observed_ports("bottleneck")[0].drops

    burst_scheme = make_scheme(scheme_name, link_rate=link_rate, n_queues=2)
    burst = run_incast(
        burst_scheme, _scheduler_factory(scheduler_name, 2),
        incast_flows([1, burst_flows],
                     start_times=[0.0, duration * 0.5]),
        link_rate=link_rate, config=run_cfg, shared_buffer=spec,
        init_cwnd=init_cwnd, topology=topology,
    )
    port = burst.network.observed_ports("bottleneck")[0]
    burst_drops = port.queue_drops[1]
    # Everything queue 1 offered the port: what it dropped plus what it
    # serialized (data packets are MTU-sized) plus what is still queued.
    offered = (burst_drops + round(burst.meter.total_bytes(1) / MTU_BYTES)
               + port.queue_packet_count(1))
    burst_loss = burst_drops / offered if offered else 0.0
    pool_peak, pool_rejections = _pool_stats(burst)

    return SharedBufRow(
        scheme=victim.scheme, scheduler=scheduler_name,
        policy=spec.policy if spec is not None else "none",
        capacity=spec.capacity if spec is not None else 0,
        alpha=spec.alpha if spec is not None else 0.0,
        target_delay=spec.target_delay if spec is not None else 0.0,
        victim_gbps=q0, hogs_gbps=q1, victim_err=victim_err,
        victim_drops=victim_drops, burst_drops=burst_drops,
        burst_loss_fraction=burst_loss, pool_peak=pool_peak,
        pool_rejections=pool_rejections,
    )


def sharedbuf_point_spec(
    scheme_name: str,
    scheduler_name: str,
    shared_buffer: Optional[SharedBufferSpec],
    profile: ScaleProfile,
    seed: int,
    audit: bool = False,
    topology: Union[str, TopologySpec, None] = None,
    faults: Sequence[FaultSpec] = (),
) -> ExperimentSpec:
    """The canonical identity of one shared-buffer point (cache key).

    The full :class:`~repro.net.sharedbuf.SharedBufferSpec` is rendered
    into the params, so a changed alpha, capacity or delay target
    re-keys exactly the affected points.  ``topology=None`` renders the
    historical ``single-bottleneck`` param, leaving old cache keys
    intact; non-default specs re-key via
    :meth:`~repro.net.topology.TopologySpec.cache_params`.
    """
    topo = as_topology(topology)
    params: Dict[str, Any] = dict(
        topo.cache_params() if topo is not None
        else {"topology": "single-bottleneck"})
    params["shared_buffer"] = (shared_buffer.to_param()
                               if shared_buffer is not None else "none")
    params.update(extension_params(faults))
    return ExperimentSpec.create(
        SHAREDBUF_EXPERIMENT, scheme=scheme_name, scheduler=scheduler_name,
        load=0.0, seed=seed, profile=profile, audit=audit, params=params,
    )


def _sharedbuf_sweep_point(point,
                           provenance: Dict[str, Any]) -> SharedBufRow:
    """Simulate one sweep point (the ``compute`` of
    :func:`~repro.store.sweep.cached_sweep`)."""
    (scheme_name, scheduler_name, shared_buffer, profile, _seed, audit,
     topology, faults) = point
    started = time.perf_counter()
    row = sharedbuf_point(
        scheme_name, scheduler_name, shared_buffer,
        link_rate=profile.link_rate,
        config=RunConfig(duration=profile.static_duration, audit=audit,
                         faults=faults),
        topology=topology,
    )
    provenance["elapsed_s"] = time.perf_counter() - started
    return row


def run_sharedbuf_sweep(
    scheme_names: Sequence[str] = SHAREDBUF_SCHEMES,
    scheduler_name: str = "dwrr",
    policies: Optional[Sequence[SharedBufferSpec]] = None,
    include_baseline: bool = True,
    profile: Optional[ScaleProfile] = None,
    seed: Optional[int] = None,
    config: Optional[RunConfig] = None,
    store: Optional[Union[RunStore, str]] = None,
    topology: Union[str, TopologySpec, None] = None,
) -> List[SharedBufRow]:
    """The buffer-contention matrix: every scheme × sharing policy.

    ``policies`` defaults to :func:`default_policies` (DT across
    :data:`DEFAULT_ALPHAS` plus BShare across
    :data:`DEFAULT_TARGET_DELAYS`); ``include_baseline`` prepends the
    private-buffer control point per scheme.  Points fan out over
    worker processes and cache/resume exactly like
    :func:`~repro.experiments.largescale.run_fct_sweep`.  The policy
    grid is this sweep's variable, so ``config.shared_buffer`` is not
    consulted; ``config.faults`` is, and
    ``topology=None`` means ``config.topology``.
    """
    config, profile, seed, jobs, store, force = sweep_setup(
        config, profile, seed, store)
    if policies is None:
        policies = default_policies()
    policy_points: List[Optional[SharedBufferSpec]] = list(policies)
    if include_baseline:
        policy_points = [None] + policy_points
    (topology,) = config.resolve(topology=topology)
    # A point is sharedbuf_point_spec's arguments, in order.
    points = [
        (name, scheduler_name, policy, profile, seed, bool(config.audit),
         as_topology(topology), tuple(config.faults or ()))
        for policy in policy_points
        for name in scheme_names
        if not (scheduler_name == "wfq" and name == "mq-ecn")
    ]
    return cached_sweep(
        points, [sharedbuf_point_spec(*point) for point in points],
        f"{__name__}:_sharedbuf_sweep_point", SharedBufRow.from_payload,
        store, force, jobs, profile.name)
