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

Rows carry the pool's own ledger (peak occupancy, policy rejections).
The store-backed sweep is the
:data:`~repro.experiments.families.SHAREDBUF` row.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Tuple

from ..metrics.throughput import fair_share_error
from ..net.packet import MTU_BYTES
from ..store.spec import RunConfig
from .families import SharedBufRow
from .scenario import (IncastResult, incast_flows, make_scheme, run_incast,
                       scheduler_factory)

__all__ = ["BURST_FLOWS", "HOG_FLOWS", "sharedbuf_point"]


def _pool_stats(result) -> Tuple[int, int]:
    pools = [sw.shared_buffer for sw in result.network.switches
             if sw.shared_buffer is not None]
    if not pools:
        return 0, 0
    return (max(buf.peak_packets for buf in pools),
            sum(buf.rejections for buf in pools))


#: The victim scenario's queue-1 hogs, and the burst scenario's queue-1
#: flows.
HOG_FLOWS, BURST_FLOWS = 8, 16


def sharedbuf_point(point: Mapping[str, Any],
                    provenance: Dict[str, Any]) -> SharedBufRow:
    """The ``SHAREDBUF`` row's point function: measure one (scheme,
    scheduler, policy) buffer-contention point.

    Two incast runs of the profile's static duration on a single
    bottleneck whose switch memory is the point's ``shared_buffer``
    (None: the private-buffer baseline):

    - *victim*: 1 queue-0 flow vs :data:`HOG_FLOWS` queue-1 flows from
      t=0; ``victim_err`` is the queue-0 distance from its DWRR fair
      share.
    - *burst*: the queue-0 flow warms up alone, then
      :data:`BURST_FLOWS` flows slam queue 1 at the half-way point;
      ``burst_loss_fraction`` is the dropped share of everything queue 1
      offered the port.
    """
    started = time.perf_counter()
    profile, spec = point["profile"], point["shared_buffer"]
    duration = profile.static_duration
    config = RunConfig(duration=duration, audit=point["audit"],
                       faults=point["faults"])

    def incast(flows) -> IncastResult:
        # A synchronized start with the default init_cwnd=16 slams
        # (1 + HOG_FLOWS) × 16 packets into the shallow shared memory at
        # t=0: every flow loses its whole window and sits out min_rto
        # (10 ms) — the run measures one synchronized collapse, not
        # buffer sharing.  Start small; congestion avoidance regrows the
        # windows into whatever the policy actually allows.
        return run_incast(
            make_scheme(point["scheme_name"], link_rate=profile.link_rate,
                        n_queues=2),
            scheduler_factory(point["scheduler_name"], 2), flows,
            link_rate=profile.link_rate, config=config, shared_buffer=spec,
            init_cwnd=4.0, topology=point["topology"])

    victim = incast(incast_flows([1, HOG_FLOWS]))
    q0, q1 = victim.queue_gbps[0], victim.queue_gbps[1]
    victim_err = fair_share_error(q0, q1)
    victim_drops = victim.network.observed_ports("bottleneck")[0].drops

    burst = incast(incast_flows([1, BURST_FLOWS],
                                start_times=[0.0, duration * 0.5]))
    port = burst.network.observed_ports("bottleneck")[0]
    burst_drops = port.queue_drops[1]
    # Everything queue 1 offered the port: what it dropped plus what it
    # serialized (data packets are MTU-sized) plus what is still queued.
    offered = (burst_drops + round(burst.meter.total_bytes(1) / MTU_BYTES)
               + port.queue_packet_count(1))
    burst_loss = burst_drops / offered if offered else 0.0
    pool_peak, pool_rejections = _pool_stats(burst)
    provenance["elapsed_s"] = time.perf_counter() - started

    return SharedBufRow(
        scheme=victim.scheme, scheduler=point["scheduler_name"],
        policy=spec.policy if spec is not None else "none",
        capacity=spec.capacity if spec is not None else 0,
        alpha=spec.alpha if spec is not None else 0.0,
        target_delay=spec.target_delay if spec is not None else 0.0,
        victim_gbps=q0, hogs_gbps=q1, victim_err=victim_err,
        victim_drops=victim_drops, burst_drops=burst_drops,
        burst_loss_fraction=burst_loss, pool_peak=pool_peak,
        pool_rejections=pool_rejections,
    )
