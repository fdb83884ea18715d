"""Conservative-lookahead sharded execution of one Clos scenario.

The fabric is partitioned at leaf/pod boundaries into ``N`` shards.
Every shard *rebuilds the full fabric* deterministically (construction
is cheap and keeps all RNG draws, flow ids, and device names identical
to a single-process run), computes the same :class:`ShardPlan` from
device names, and then *cuts* every link whose destination lives in a
different shard (:func:`cut_fabric`; ``n_shards == 1`` plans and cuts
nothing, and the experiment layer runs that scenario in-process):

* the link's ``delay`` is zeroed and its ``dst`` rebound to a
  :class:`BoundaryStub`, so the capture fires in the **same lookahead
  window** as the original ``deliver()`` call;
* the stub recomputes the neighbour-side arrival as
  ``sim.now + wire_delay`` — bit-identical float arithmetic to the
  single-process ``sim.now + link.delay`` — and appends a plain-tuple
  export entry to the destination shard's outbox;
* loss/corruption models still classify at ``deliver()`` time, before
  the stub, so per-link fault streams are byte-identical.

Synchronisation is classic conservative windowed lookahead (LBTS with
null messages): the window ``W`` is the *minimum* boundary-link delay,
so any packet exported during round ``k`` (simulated time
``[kW, (k+1)W)``) arrives at time ``>= (k+1)W`` and can be injected at
the round-``k`` barrier before any shard has advanced past it.  Empty
batches double as null messages.  Imports are merged in sorted
``(arrival, link_name, link_seq)`` order, so at a given shard count the
serial and the multiprocessing executor produce identical bytes.
Against a single-process run results are *close, not always equal*
(``docs/API.md`` has the measured envelope) — likely because an import
is sequenced at the barrier, after everything the receiving shard
scheduled during the round, so it can swap with a local event it ties
on the timestamp.
"""

from __future__ import annotations

import os
import re
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..net.topology import Network, partition_groups
from .engine import Simulator

__all__ = [
    "ShardPlan",
    "plan_shards",
    "BoundaryStub",
    "CutFabric",
    "cut_fabric",
    "verify_fabric",
    "ShardScenario",
    "ShardResult",
    "ShardedSimulator",
    "scenario_stats",
    "engine_totals",
    "aggregate_shard_stats",
    "SYNC_TIMEOUT_ENV",
]

#: Seconds a worker waits on its inbox before declaring the fleet dead.
SYNC_TIMEOUT_ENV = "REPRO_SHARD_SYNC_TIMEOUT"
_DEFAULT_SYNC_TIMEOUT = 300.0

# Export-entry tuple layout (plain tuples cross process boundaries
# cheaply and unambiguously):
#   (arrival_time, link_name, link_seq, kind, flow_id, src, dst, seq,
#    size, service, ect, ce, ece, ack_seq, echo_time, sent_time,
#    retransmit)
Entry = Tuple[Any, ...]


# ---------------------------------------------------------------------------
# Partitioning


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic device→shard assignment for one built fabric.

    Computed purely from device *names* and the host→leaf wiring, so
    every process that builds the same fabric derives the same plan.
    """

    n_shards: int
    #: switch name -> owning shard.
    switch_owner: Dict[str, int]
    #: host id -> owning shard (a host follows its leaf switch).
    host_owner: Dict[int, int]
    #: boundary link name -> (src shard, dst shard, wire delay).
    boundary: Dict[str, Tuple[int, int, float]]
    #: Conservative lookahead window: min boundary-link delay (seconds).
    lookahead: float

    def local_hosts(self, shard_id: int) -> set:
        return {h for h, o in self.host_owner.items() if o == shard_id}


_POD_OF_EDGE = re.compile(r"^edge(\d+)_\d+$")
_POD_OF_AGG = re.compile(r"^agg(\d+)_\d+$")


def plan_shards(network: Network, n_shards: int) -> ShardPlan:
    """Partition a built fabric into ``n_shards`` leaf/pod-aligned shards.

    Partitioning rules:

    * host-facing groups (pods in a 3-tier Clos, individual leaves in a
      2-tier one) are assigned contiguously: group ``g`` of ``G`` goes
      to shard ``(g * n_shards) // G``;
    * hosts follow their leaf switch;
    * ``agg{p}_{j}`` aggregation switches follow pod ``p``;
    * remaining switches (spines/cores) are spread round-robin in
      construction order: switch ``i`` of ``S`` to ``(i*n_shards)//S``.

    Raises ``ValueError`` when ``n_shards`` exceeds the group count or
    any boundary link has a non-positive delay (zero lookahead would
    deadlock the conservative protocol).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    groups = partition_groups(network)
    if n_shards > len(groups):
        raise ValueError(
            f"cannot split {len(groups)} leaf/pod groups into "
            f"{n_shards} shards; lower --shards to <= {len(groups)}")

    switch_owner: Dict[str, int] = {}
    pod_owner: Dict[str, int] = {}
    for gi, group in enumerate(groups):
        owner = (gi * n_shards) // len(groups)
        for switch in group:
            switch_owner[switch.name] = owner
            match = _POD_OF_EDGE.match(switch.name)
            if match:
                pod_owner[match.group(1)] = owner

    # Aggregation switches stay with their pod; everything else
    # (spines, cores, unknown names) is spread deterministically.
    rest = [sw for sw in network.switches if sw.name not in switch_owner]
    spread: List[Any] = []
    for switch in rest:
        match = _POD_OF_AGG.match(switch.name)
        if match and match.group(1) in pod_owner:
            switch_owner[switch.name] = pod_owner[match.group(1)]
        else:
            spread.append(switch)
    for index, switch in enumerate(spread):
        switch_owner[switch.name] = (index * n_shards) // len(spread)

    host_owner: Dict[int, int] = {}
    for host in network.hosts:
        leaf = host.nic.link.dst
        host_owner[host.host_id] = switch_owner[leaf.name]

    def device_owner(device: Any) -> int:
        name = getattr(device, "name", None)
        if name in switch_owner:
            return switch_owner[name]
        host_id = getattr(device, "host_id", None)
        if host_id in host_owner:
            return host_owner[host_id]
        raise ValueError(f"cannot determine shard owner of {device!r}")

    boundary: Dict[str, Tuple[int, int, float]] = {}
    for switch in network.switches:
        src_owner = switch_owner[switch.name]
        for port in switch.ports:
            link = port.link
            if link is None or link.dst is None:
                continue
            dst_owner = device_owner(link.dst)
            if dst_owner == src_owner:
                continue
            if link.delay <= 0.0:
                raise ValueError(
                    f"boundary link {link.name} has delay {link.delay}; "
                    "conservative sharding needs positive lookahead")
            boundary[link.name] = (src_owner, dst_owner, link.delay)
    # Host NICs are never boundary links: a host is owned by its leaf.
    lookahead = min((d for _, _, d in boundary.values()), default=0.0)
    return ShardPlan(n_shards=n_shards, switch_owner=switch_owner,
                     host_owner=host_owner, boundary=boundary,
                     lookahead=lookahead)


# ---------------------------------------------------------------------------
# Fabric surgery


class BoundaryStub:
    """Receives packets at a cut link and captures them as export entries.

    The owning link has been re-pointed (``link.dst = stub``) with its
    delay zeroed, so :meth:`receive` fires at the exact simulated time
    ``deliver()`` ran; the stub recomputes the neighbour-side arrival
    with the original wire delay.
    """

    __slots__ = ("fabric", "link_name", "wire_delay", "dst_owner", "seq")

    def __init__(self, fabric: "CutFabric", link_name: str,
                 wire_delay: float, dst_owner: int):
        self.fabric = fabric
        self.link_name = link_name
        self.wire_delay = wire_delay
        self.dst_owner = dst_owner
        self.seq = 0

    def receive(self, packet: Any) -> None:
        fabric = self.fabric
        arrival = fabric.sim._now + self.wire_delay
        self.seq += 1
        fabric.outboxes[self.dst_owner].append((
            arrival, self.link_name, self.seq, packet.kind, packet.flow_id,
            packet.src, packet.dst, packet.seq, packet.size, packet.service,
            packet.ect, packet.ce, packet.ece, packet.ack_seq,
            packet.echo_time, packet.sent_time, packet.retransmit))
        fabric.exported += 1


class _DeadEnd:
    """Trap destination for links that should never carry traffic."""

    __slots__ = ("link_name",)

    def __init__(self, link_name: str):
        self.link_name = link_name

    def receive(self, packet: Any) -> None:
        raise RuntimeError(
            f"packet reached fully-remote link {self.link_name}; "
            "a flow was wired onto a device this shard does not own")


class CutFabric:
    """One shard's view of the fabric: full build, non-local links cut.

    * Links whose destination is non-local and whose transmitter *is*
      local become export points (``BoundaryStub``).
    * Links arriving from another shard keep their destination; the
      original dst device is recorded in :attr:`import_map` so inbound
      entries can be injected as direct ``device.receive`` events.
    * Fully-remote links get a :class:`_DeadEnd` trap.
    """

    def __init__(self, sim: Simulator, network: Network, plan: ShardPlan,
                 shard_id: int):
        if not 0 <= shard_id < plan.n_shards:
            raise ValueError(f"shard_id {shard_id} out of range")
        self.sim = sim
        self.network = network
        self.plan = plan
        self.shard_id = shard_id
        self.local_host_ids = plan.local_hosts(shard_id)
        #: peer shard -> pending export entries for the current round.
        self.outboxes: Dict[int, List[Entry]] = {
            peer: [] for peer in range(plan.n_shards) if peer != shard_id}
        #: boundary link name -> local dst device for inbound injection.
        self.import_map: Dict[str, Any] = {}
        self.exported = 0
        self.imported = 0
        self.sync_rounds = 0
        self._cut(network, plan, shard_id)
        sim.barrier_hook = self._on_barrier

    def _cut(self, network: Network, plan: ShardPlan, shard_id: int) -> None:
        owner = plan.switch_owner
        for switch in network.switches:
            src_owner = owner[switch.name]
            for port in switch.ports:
                link = port.link
                if link is None or link.dst is None:
                    continue
                spec = plan.boundary.get(link.name)
                if spec is None:
                    # Shard-internal link: leave intact (even if fully
                    # remote — nothing will traverse it).
                    continue
                link_src, link_dst, delay = spec
                if link_dst == shard_id:
                    # Inbound boundary: keep dst, record injection target.
                    self.import_map[link.name] = link.dst
                elif link_src == shard_id:
                    link.delay = 0.0
                    link.dst = BoundaryStub(self, link.name, delay, link_dst)
                else:
                    link.delay = 0.0
                    link.dst = _DeadEnd(link.name)

    def _on_barrier(self, lbts: float) -> None:
        self.sync_rounds += 1

    def take_outboxes(self) -> Dict[int, List[Entry]]:
        """Drain and return this round's per-peer export batches."""
        out = {peer: batch for peer, batch in self.outboxes.items() if batch}
        for peer in self.outboxes:
            self.outboxes[peer] = []
        return out

    def inject(self, entries: List[Entry]) -> None:
        """Schedule inbound entries in deterministic merge order.

        Entries are sorted by ``(arrival, link_name, link_seq)`` and
        scheduled in that order, so the engine's monotone event sequence
        numbers reproduce the same tie-break at any shard count.
        """
        if not entries:
            return
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        sim = self.sim
        import_map = self.import_map
        for (when, link_name, _link_seq, kind, flow_id, src, dst, seq,
             size, service, ect, ce, ece, ack_seq, echo_time, sent_time,
             retransmit) in entries:
            packet = Packet(kind, flow_id, src, dst, seq, size, service,
                            ect)
            packet.ce = ce
            packet.ece = ece
            packet.ack_seq = ack_seq
            packet.echo_time = echo_time
            packet.sent_time = sent_time
            packet.retransmit = retransmit
            device = import_map[link_name]
            sim.at(when, device.receive, packet)
            self.imported += 1

    def sync_auditor(self) -> None:
        """Copy export/import counters onto the attached auditor."""
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.external_exported = self.exported
            auditor.external_imported = self.imported
            auditor.local_host_ids = self.local_host_ids


def cut_fabric(network: Network, shard_id: int,
               n_shards: int) -> Optional[CutFabric]:
    """This shard's cut of a freshly built fabric; None at
    ``n_shards == 1`` (no plan, every host local).  Also attaches the
    simulator's auditor, if any — after the cut, so it sees the links
    the shard actually owns."""
    sim = network.sim
    fabric = None
    if n_shards > 1:
        fabric = CutFabric(sim, network, plan_shards(network, n_shards),
                           shard_id)
    if sim.auditor is not None:
        sim.auditor.attach_network(network)
        if fabric is not None:
            # Publish host locality before flows open, so the transport
            # validators know which receivers are remote mirrors.
            fabric.sync_auditor()
    return fabric


def verify_fabric(network: Network, fabric: Optional[CutFabric]) -> None:
    """End-of-run conservation pass (a no-op without an auditor)."""
    if fabric is not None:
        fabric.sync_auditor()
    if network.sim.auditor is not None:
        network.sim.auditor.verify_fabric()


# ---------------------------------------------------------------------------
# Scenario protocol


@dataclass
class ShardScenario:
    """Everything the round driver needs from one shard's experiment.

    ``total_units`` is the fleet-wide completion target (e.g. total flow
    count); ``None`` means "run to the deadline" (fixed-duration
    scenarios).  ``completed`` counts locally-finished units; each unit
    must be counted by exactly one shard.  ``finalize`` runs after the
    last round and returns a payload for the parent — *picklable* when
    the scenario was built for ``n_shards > 1``.  ``fabric`` is this
    shard's cut; None means the builder was called with
    ``n_shards == 1`` (no plan, no cut, every host local).
    """

    sim: Simulator
    deadline: float
    total_units: Optional[int]
    completed: Callable[[], int]
    finalize: Callable[[], Any]
    fabric: Optional[CutFabric] = None


@dataclass
class ShardResult:
    """Per-shard outcome: experiment payload plus runtime statistics."""

    shard_id: int
    payload: Any
    stats: Dict[str, Any] = field(default_factory=dict)


#: The engine counters run-store provenance records (its ``engine`` block).
ENGINE_COUNTERS = ("events_processed", "wheel_events_processed",
                   "heap_events_processed", "cancelled_pending",
                   "compactions")


def scenario_stats(scenario: ShardScenario, rounds: int = 0,
                   blocked_s: float = 0.0,
                   wall_s: float = 0.0) -> Dict[str, Any]:
    """One scenario's :attr:`ShardResult.stats` — the only place engine
    counters are read off a simulator, at any shard count."""
    sim = scenario.sim
    fabric = scenario.fabric
    stats: Dict[str, Any] = {key: getattr(sim, key)
                             for key in ENGINE_COUNTERS}
    stats.update(
        exported=fabric.exported if fabric is not None else 0,
        imported=fabric.imported if fabric is not None else 0,
        sync_rounds=rounds, blocked_s=blocked_s, wall_s=wall_s)
    return stats


def engine_totals(results: List[ShardResult]) -> Dict[str, int]:
    """Provenance ``engine`` block: counters summed over 1..N shards."""
    return {key: sum(result.stats[key] for result in results)
            for key in ENGINE_COUNTERS}


def _round_targets(k: int, lookahead: float,
                   deadline: float) -> Tuple[float, bool]:
    target = (k + 1) * lookahead
    final = target >= deadline
    return (deadline if final else target), final


# ---------------------------------------------------------------------------
# Serial (in-process) executor — reference implementation


def _run_serial(builder: Callable[[int, int], ShardScenario],
                n_shards: int) -> List[ShardResult]:
    start = _time.perf_counter()
    scenarios = [builder(shard_id, n_shards) for shard_id in range(n_shards)]
    lookahead = scenarios[0].fabric.plan.lookahead
    total_units = scenarios[0].total_units
    k = 0
    while True:
        final = False
        for scenario in scenarios:
            until, final = _round_targets(k, lookahead, scenario.deadline)
            scenario.sim.run_until_lbts(until, inclusive=final)
        outs = [s.fabric.take_outboxes() for s in scenarios]
        dones = [s.completed() for s in scenarios]
        inbound: List[List[Entry]] = [[] for _ in range(n_shards)]
        for out in outs:
            for peer, batch in out.items():
                inbound[peer].extend(batch)
        for shard_id, scenario in enumerate(scenarios):
            scenario.fabric.inject(inbound[shard_id])
        k += 1
        if final or (total_units is not None
                     and sum(dones) >= total_units):
            break
    wall = _time.perf_counter() - start
    results = []
    for shard_id, scenario in enumerate(scenarios):
        payload = scenario.finalize()
        results.append(ShardResult(
            shard_id, payload,
            scenario_stats(scenario, k, 0.0, wall)))
    return results


# ---------------------------------------------------------------------------
# Multiprocessing executor


def _worker_loop(shard_id: int, n_shards: int,
                 builder: Callable[[int, int], ShardScenario],
                 inboxes: List[Any], results: Any,
                 sync_timeout: float) -> None:
    try:
        start = _time.perf_counter()
        scenario = builder(shard_id, n_shards)
        lookahead = scenario.fabric.plan.lookahead
        total_units = scenario.total_units
        inbox = inboxes[shard_id]
        peers = [p for p in range(n_shards) if p != shard_id]
        pending: Dict[int, List[Tuple[int, List[Entry], int]]] = {}
        blocked = 0.0
        k = 0
        while True:
            until, final = _round_targets(k, lookahead, scenario.deadline)
            scenario.sim.run_until_lbts(until, inclusive=final)
            out = scenario.fabric.take_outboxes()
            local_done = scenario.completed()
            for peer in peers:
                inboxes[peer].put(
                    (shard_id, k, out.get(peer, []), local_done))
            got = pending.pop(k, [])
            wait_start = _time.perf_counter()
            while len(got) < n_shards - 1:
                peer, round_k, batch, done = inbox.get(timeout=sync_timeout)
                if round_k == k:
                    got.append((peer, batch, done))
                else:
                    pending.setdefault(round_k, []).append(
                        (peer, batch, done))
            blocked += _time.perf_counter() - wait_start
            merged: List[Entry] = []
            global_done = local_done
            for _peer, batch, done in got:
                merged.extend(batch)
                global_done += done
            scenario.fabric.inject(merged)
            k += 1
            if final or (total_units is not None
                         and global_done >= total_units):
                break
        wall = _time.perf_counter() - start
        payload = scenario.finalize()
        results.put((shard_id, payload,
                     scenario_stats(scenario, k, blocked, wall)))
    except BaseException:
        results.put((shard_id, None, traceback.format_exc()))


def _run_process(builder: Callable[[int, int], ShardScenario],
                 n_shards: int, sync_timeout: float) -> List[ShardResult]:
    import multiprocessing  # only a sharded run forks
    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(n_shards)]
    results_q = ctx.Queue()
    workers = [
        ctx.Process(
            target=_worker_loop,
            args=(shard_id, n_shards, builder, inboxes, results_q,
                  sync_timeout),
            daemon=False)
        for shard_id in range(n_shards)
    ]
    for worker in workers:
        worker.start()
    results: List[ShardResult] = []
    failure: Optional[Tuple[int, str]] = None
    try:
        for _ in range(n_shards):
            shard_id, payload, stats = results_q.get(timeout=sync_timeout)
            if payload is None and isinstance(stats, str):
                failure = (shard_id, stats)
                break
            results.append(ShardResult(shard_id, payload, stats))
    finally:
        for worker in workers:
            if failure is not None and worker.is_alive():
                worker.terminate()
            worker.join(timeout=30.0)
        for queue in [*inboxes, results_q]:
            queue.close()
            queue.cancel_join_thread()
    if failure is not None:
        raise RuntimeError(
            f"shard {failure[0]} failed:\n{failure[1]}")
    results.sort(key=lambda r: r.shard_id)
    return results


# ---------------------------------------------------------------------------
# Orchestrator


class ShardedSimulator:
    """Run one scenario across ``n_shards`` conservative-lookahead shards.

    ``builder(shard_id, n_shards)`` must deterministically construct
    that shard's :class:`ShardScenario` — typically: build the full
    fabric, :func:`cut_fabric`, wire only local flows, and return the
    scenario with a picklable ``finalize``.

    ``executor`` selects how shards run: ``"serial"`` interleaves all
    shards round-by-round in this process (the reference the tests
    compare against — same bytes, no speedup), ``"process"`` forks one
    worker per shard, and ``"auto"`` picks ``process`` when fork is
    available, falling back to ``serial`` when worker processes cannot
    be created.
    """

    def __init__(self, n_shards: int,
                 builder: Callable[[int, int], ShardScenario],
                 executor: str = "auto",
                 sync_timeout: Optional[float] = None):
        if n_shards < 2:
            raise ValueError("ShardedSimulator needs n_shards >= 2; "
                             "run single-process for shards=1")
        if executor not in ("auto", "serial", "process"):
            raise ValueError(f"unknown executor {executor!r}")
        self.n_shards = n_shards
        self.builder = builder
        self.executor = executor
        if sync_timeout is None:
            sync_timeout = float(os.environ.get(
                SYNC_TIMEOUT_ENV, _DEFAULT_SYNC_TIMEOUT))
        self.sync_timeout = sync_timeout

    def run(self) -> List[ShardResult]:
        mode = self.executor
        if mode == "auto":
            mode = "process" if hasattr(os, "fork") else "serial"
        if mode == "process":
            try:
                return _run_process(self.builder, self.n_shards,
                                    self.sync_timeout)
            except OSError:
                # Sandboxes that forbid fork: the serial executor
                # produces identical results, just without the speedup.
                pass
        return _run_serial(self.builder, self.n_shards)


def aggregate_shard_stats(results: List[ShardResult]) -> Dict[str, Any]:
    """Fleet-wide provenance block: totals plus per-shard counters."""
    def total(key: str) -> Any:
        return sum(result.stats.get(key, 0) for result in results)

    return {
        "n": len(results),
        "events_processed": total("events_processed"),
        "exported": total("exported"),
        "imported": total("imported"),
        "sync_rounds": max((result.stats.get("sync_rounds", 0)
                            for result in results), default=0),
        "blocked_s": total("blocked_s"),
        "per_shard": [{"shard": result.shard_id, **result.stats}
                      for result in results],
    }
