"""Sharding as an executor: the plumbing the scenario builders share.

Each family has *one* module-level builder
``(shard_id, n_shards, …) -> ShardScenario`` —
:func:`~repro.experiments.largescale.fct_scenario`,
:func:`~repro.experiments.scenario.incast_scenario`,
:func:`~repro.experiments.xscale.xscale_scenario` — that rebuilds the
full fabric and every flow descriptor deterministically, cuts the fabric
for its shard (:func:`~repro.sim.shard.cut_fabric`; ``n_shards == 1``
cuts nothing) and wires the flows whose endpoints it owns
(:func:`wire_local_flows`).  :func:`execute` runs that builder
in-process or across shards; the family's runner turns the returned
payloads into its row type either way.  What a sharded row may differ
by from the single-process one is measured, not assumed: see the
determinism contract in ``docs/API.md`` and
``tests/integration/test_shard_differential.py``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..net.topology import Network
from ..sim.shard import (CutFabric, ShardResult, ShardScenario,
                         ShardedSimulator, aggregate_shard_stats,
                         engine_totals, scenario_stats)
from ..transport.base import DctcpConfig
from ..transport.endpoints import open_flow
from ..transport.flow import Flow
from ..transport.receiver import DctcpReceiver

__all__ = ["execute", "wire_local_flows"]


def _wire_receiver(network: Network, flow: Flow,
                   config: DctcpConfig) -> DctcpReceiver:
    """Receiver-only wiring: the sender lives in another shard."""
    sim = network.sim
    dst_host = network.host(flow.dst)
    receiver = DctcpReceiver(sim, dst_host, flow,
                             ack_every=config.ack_every,
                             delack_timeout=config.delack_timeout)
    if sim.auditor is not None:
        sim.auditor.watch_receiver(flow, receiver)
    else:
        dst_host.register_flow(flow.flow_id, data_handler=receiver.on_data)
    return receiver


def wire_local_flows(
    network: Network,
    fabric: Optional[CutFabric],
    flows: Sequence[Flow],
    make_config: Callable[[Flow], DctcpConfig],
    on_complete=None,
) -> List[Any]:
    """Open each flow the way this shard sees it.

    * source local → full :func:`open_flow` (the remote-host receiver
      object it creates is inert — nothing is routed to it);
    * only destination local → receiver-only wiring, so data arriving
      over the boundary finds its endpoint;
    * neither local → skipped (transit shards need no endpoints).

    With ``fabric`` None every host is local.  Returns the local sender
    handles (source-local flows only), in flow order.
    """
    local = None if fabric is None else fabric.local_host_ids
    handles: List[Any] = []
    for flow in flows:
        if local is None or flow.src in local:
            handles.append(open_flow(network, flow, make_config(flow),
                                     on_complete=on_complete))
        elif flow.dst in local:
            _wire_receiver(network, flow, make_config(flow))
    return handles


def _merge_fault_stats(per_shard: List[Optional[Dict[str, Any]]]
                       ) -> Dict[str, Any]:
    """Sum per-link chaos stats across shards.

    Each link delivers (and classifies losses) in exactly one shard —
    the one owning its transmitter — so summing reproduces the
    single-process breakdown (and one shard's stats come back as they
    went in, key order included).
    """
    merged: Dict[str, Any] = {"links": {}, "drops": {}}
    for stats in per_shard:
        if not stats:
            continue
        for name, link_stats in stats.get("links", {}).items():
            into = merged["links"].setdefault(
                name, {"delivered": 0, "lost": 0, "breakdown": {}})
            into["delivered"] += link_stats.get("delivered", 0)
            into["lost"] += link_stats.get("lost", 0)
            for reason, count in link_stats.get("breakdown", {}).items():
                into["breakdown"][reason] = (
                    into["breakdown"].get(reason, 0) + count)
        for reason, count in stats.get("drops", {}).items():
            merged["drops"][reason] = merged["drops"].get(reason, 0) + count
    merged["links"] = dict(sorted(merged["links"].items()))
    return merged


def execute(builder: Callable[[int, int], ShardScenario], shards: int,
            poll: Optional[float] = None,
            provenance_out: Optional[Dict[str, Any]] = None,
            ) -> List[ShardResult]:
    """Run ``builder``'s scenario on ``shards`` shards; one result each.

    ``shards == 1`` builds ``builder(0, 1)`` and runs it in this
    process — to the deadline, or, when the scenario counts completions
    (``total_units``), in ``poll``-second chunks until they are all in.
    Anything more goes through :class:`ShardedSimulator`, which checks
    for completion at every lookahead barrier instead.
    ``provenance_out``, when given, receives the run-store provenance of
    the execution: ``elapsed_s``, the summed ``engine`` counters and,
    when sharded, the fleet's ``shards`` block.
    """
    start = time.perf_counter()
    if shards > 1:
        results = ShardedSimulator(shards, builder).run()
    else:
        scenario = builder(0, 1)
        sim, deadline = scenario.sim, scenario.deadline
        if scenario.total_units is None:
            sim.run(until=deadline)
        else:
            while (scenario.completed() < scenario.total_units
                   and sim.now < deadline):
                sim.run(until=min(sim.now + poll, deadline))
        payload = scenario.finalize()
        results = [ShardResult(0, payload, scenario_stats(
            scenario, wall_s=time.perf_counter() - start))]
    if provenance_out is not None:
        provenance_out["elapsed_s"] = time.perf_counter() - start
        provenance_out["engine"] = engine_totals(results)
        if shards > 1:
            provenance_out["shards"] = aggregate_shard_stats(results)
    return results
