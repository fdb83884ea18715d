"""Chaos experiments: PMSB's victim protection under faulty links.

The paper evaluates every scheme on a pristine fabric.  These
experiments re-ask its two headline questions with a deterministic
fault layer (:mod:`repro.sim.faults`) injected into the wires:

- **fig3 chaos variant** (:func:`chaos_victim`): the 1-vs-8 victim
  scenario with the bottleneck wire losing or corrupting packets — does
  per-port marking's collateral damage get better or worse when the
  victim also suffers real loss, and does PMSB's selective blindness
  still protect it?
- **fig8 chaos variant** (:func:`chaos_fair_share`): PMSB's 1:4
  weighted fair sharing under bottleneck loss.
- **loss-rate sweep** (the :data:`~repro.experiments.families.CHAOS`
  row): the §VI-B FCT workload for PMSB vs per-port vs per-queue across
  a grid of average loss rates, store-backed exactly like the clean
  sweep — chaos points key by their :class:`~repro.sim.faults.FaultSpec`
  set and cache/resume byte-identically at any ``--jobs`` level.

Determinism: faults draw from dedicated seeded streams, so every row
here is a pure function of its spec — the same guarantees (and tests)
as the clean experiments, loss included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..metrics.throughput import fair_share_error
from ..scheduling.dwrr import DwrrScheduler
from ..store.spec import RunConfig
from .families import ChaosFctRow, chaos_faults, sorted_drops
from .largescale import run_fct_point
from .scenario import incast_flows, make_scheme, run_incast

__all__ = ["ChaosVictimRow", "chaos_fair_share", "chaos_sweep_point",
           "chaos_victim"]


# -- static chaos variants (figs. 3 / 8 under loss) ---------------------------

@dataclass
class ChaosVictimRow:
    """One (scheme, model, loss rate) victim/fair-share measurement."""

    scheme: str
    model: str
    loss_rate: float
    queue1_gbps: float
    queue2_gbps: float
    fair_share_error: float
    #: Injected drops by reason over the faulted links.
    drops: Dict[str, int]


def _incast_under_loss(
    scheme_name: str,
    model: str,
    loss_rate: float,
    flows_queue2: int,
    port_threshold: float,
    link_rate: float,
    fault_seed: int,
    config: Optional[RunConfig],
) -> ChaosVictimRow:
    scheme = make_scheme(
        scheme_name, link_rate=link_rate, n_queues=2,
        port_threshold_packets=port_threshold,
    )
    # The loss sits on the bottleneck wire — downstream of the marker,
    # where a drop hurts exactly the flows the marker is judging.  It is
    # this experiment's variable, so it is passed explicitly and
    # ``config.faults`` is never consulted.
    result = run_incast(
        scheme, lambda: DwrrScheduler(2), incast_flows([1, flows_queue2]),
        link_rate=link_rate, config=config,
        faults=chaos_faults(model, loss_rate, links="bottleneck"),
        fault_seed=fault_seed,
    )
    q1, q2 = result.queue_gbps[0], result.queue_gbps[1]
    drops = (sorted_drops(result.chaos.stats()["drops"])
             if result.chaos is not None else {})
    return ChaosVictimRow(
        scheme=result.scheme, model=model, loss_rate=loss_rate,
        queue1_gbps=q1, queue2_gbps=q2,
        fair_share_error=fair_share_error(q1, q2),
        drops=drops,
    )


def chaos_victim(
    scheme_name: str = "per-port",
    loss_rate: float = 1e-3,
    model: str = "iid-loss",
    flows_queue2: int = 8,
    port_threshold: float = 16.0,
    link_rate: float = 10e9,
    fault_seed: int = 1,
    config: Optional[RunConfig] = None,
) -> ChaosVictimRow:
    """Fig. 3's 1-vs-``flows_queue2`` victim scenario under wire loss.

    Same fabric and parameters as
    :func:`~repro.experiments.motivation.per_port_victim`, plus a loss
    model on the bottleneck wire.  Compare ``scheme_name="per-port"``
    against ``"pmsb"`` at matched loss rates to see whether selective
    blindness still protects the victim queue when the fabric is lossy.
    """
    return _incast_under_loss(scheme_name, model, loss_rate, flows_queue2,
                              port_threshold, link_rate, fault_seed, config)


def chaos_fair_share(
    scheme_name: str = "pmsb",
    loss_rate: float = 1e-3,
    model: str = "iid-loss",
    flows_queue2: int = 4,
    port_threshold: float = 12.0,
    link_rate: float = 10e9,
    fault_seed: int = 1,
    config: Optional[RunConfig] = None,
) -> ChaosVictimRow:
    """Fig. 8's 1:``flows_queue2`` fair-sharing scenario under loss —
    PMSB's weighted fair shares should degrade gracefully, not
    collapse, as the wire loss rate rises."""
    return _incast_under_loss(scheme_name, model, loss_rate, flows_queue2,
                              port_threshold, link_rate, fault_seed, config)


# -- the store-backed loss-rate sweep -----------------------------------------

def chaos_sweep_point(point: Mapping[str, Any],
                      provenance: Dict[str, Any]) -> ChaosFctRow:
    """The ``CHAOS`` row's point function: simulate one missed point."""
    fault_stats: Dict[str, Any] = {}
    fct = run_fct_point(
        point["scheme_name"], point["scheduler_name"], point["load"],
        point["profile"], point["seed"], topology=point["topology"],
        config=RunConfig(audit=point["audit"],
                         shared_buffer=point["shared_buffer"]),
        provenance_out=provenance,
        faults=chaos_faults(point["model"], point["loss_rate"]),
        fault_stats_out=fault_stats,
    )
    return ChaosFctRow(
        model=point["model"], loss_rate=point["loss_rate"],
        drops=sorted_drops(fault_stats.get("drops", {})), fct=fct)
