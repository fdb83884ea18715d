"""Child side: run one in-process workload once, in this fresh interpreter.

``python -m perfbench.worker run <workload> --seed S --spawned-at T``
prints one JSON object: set-up and wall time, the simulated statistics
the digest is taken over, exact counters read from public attributes
(``model.`` results among them) and — with ``--trace`` — the per-layer
profile of the entry call.
``python -m perfbench.worker probes <name>...`` runs layer probes and
``python -m perfbench.worker pick`` sizes the seeded FCT inputs.

Only surface the ROADMAP does not slate for deletion is called: no
legacy builders, no ``duration=``/``audit=``/``jobs=`` keyword aliases,
no ``set_*_default()``, no slot-batch switch, no ``repro.net.soa``, no
trains, no shards.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

from .catalog import FATTREE_1024, QUICK_DIVISOR

#: ``entry()`` is the one timed public call; ``report(raw)`` turns what
#: it returned into ``{"stats", "events", "complete", "counters"}``.
Prepared = Tuple[Callable[[], Any], Callable[[Any], Dict[str, Any]]]

WHEEL_DELAYS = (0.5e-6, 1e-6, 2e-6, 5e-6)
RTO_TIMEOUTS = (10e-3, 20e-3, 40e-3)


def read(getter: Callable[[], Any]) -> Any:
    """A public counter, or None once its attribute no longer exists."""
    try:
        return getter()
    except (AttributeError, KeyError, TypeError, ZeroDivisionError):
        return None


def engine_counters(sim: Any) -> Dict[str, Any]:
    return {
        "sim.events": read(lambda: sim.events_processed),
        "sim.wheel_events": read(lambda: sim.wheel_events_processed),
        "sim.heap_events": read(lambda: sim.heap_events_processed),
        "sim.compactions": read(lambda: sim.compactions),
        "sim.cancelled_pending": read(lambda: sim.cancelled_pending),
    }


def pool_counters() -> Dict[str, Any]:
    from repro.net import packet
    return {
        "net.pool_acquires": read(lambda: packet.POOL.acquires),
        "net.pool_hit_rate": read(lambda: packet.POOL.hit_rate()),
    }


# -- engine workloads ------------------------------------------------------

def prepare_engine_wheel(seed: int, quick: bool) -> Prepared:
    """64 self-rescheduling chains on the timing wheel, nothing else."""
    from repro.sim.engine import Simulator

    chains = 64
    hops = 20000 // (QUICK_DIVISOR if quick else 1)
    rng = random.Random(seed)
    delays = [rng.choice(WHEEL_DELAYS) for _ in range(4096)]
    sim = Simulator()
    schedule = sim.schedule
    finished = []

    def hop(chain: int, left: int, index: int) -> None:
        if left:
            schedule(delays[index & 4095], hop, chain, left - 1, index + 7)
        else:
            finished.append((chain, sim.now))

    def entry() -> Any:
        for chain in range(chains):
            schedule(delays[chain], hop, chain, hops - 1, chain * 61)
        sim.run()
        return sim

    def report(sim: Any) -> Dict[str, Any]:
        return {
            "stats": {"fired": sim.events_processed, "finished": finished},
            "events": sim.events_processed,
            "complete": (len(finished) == chains
                         and sim.events_processed == chains * hops),
            "counters": engine_counters(sim),
        }

    return entry, report


def prepare_engine_timers(seed: int, quick: bool) -> Prepared:
    """The RTO push-back pattern: every tick cancels and re-arms a
    long timer in the heap tier (lazy cancel, compaction)."""
    from repro.sim.engine import Simulator

    tickers = 256
    ticks = 2000 // (QUICK_DIVISOR if quick else 1)
    rng = random.Random(seed)
    # Mixed timeouts keep dead entries away from the heap top, so the
    # heap has to compact instead of popping them as they surface.
    timeouts = [rng.choice(RTO_TIMEOUTS) for _ in range(1024)]
    offsets = [rng.random() * 5e-6 for _ in range(tickers)]
    sim = Simulator()
    schedule = sim.schedule
    pending: list = [None] * tickers
    expired = []
    ticked = [0]

    def on_timeout(ticker: int) -> None:
        expired.append((ticker, sim.now))

    def tick(ticker: int, left: int) -> None:
        ticked[0] += 1
        event = pending[ticker]
        if event is not None:
            event.cancel()
        pending[ticker] = schedule(timeouts[(ticker + left) & 1023],
                                   on_timeout, ticker)
        if left:
            schedule(5e-6, tick, ticker, left - 1)

    def entry() -> Any:
        for ticker in range(tickers):
            schedule(offsets[ticker], tick, ticker, ticks - 1)
        sim.run()
        return sim

    def report(sim: Any) -> Dict[str, Any]:
        return {
            "stats": {"ticked": ticked[0], "expired": expired},
            # Fired plus cancelled: both cost the engine work.
            "events": sim.events_processed + ticked[0] - len(expired),
            "complete": (ticked[0] == tickers * ticks
                         and len(expired) == tickers),
            "counters": engine_counters(sim),
        }

    return entry, report


# -- packet workloads ------------------------------------------------------

def prepare_incast_pmsb(seed: int, quick: bool) -> Prepared:
    """The paper's Fig. 3/8 victim scenario (no randomness: the seed is
    unused)."""
    from repro.experiments.scenario import (incast_flows, make_scheme,
                                            run_incast)
    from repro.scheduling.dwrr import DwrrScheduler
    from repro.store.spec import RunConfig

    config = RunConfig(duration=0.1 / (QUICK_DIVISOR if quick else 1))
    scheme = make_scheme("pmsb")
    flows = incast_flows([1, 8])

    def entry() -> Any:
        return run_incast(scheme, lambda: DwrrScheduler(2), flows,
                          config=config)

    def report(result: Any) -> Dict[str, Any]:
        network = result.network
        senders = [handle.sender for handle in result.handles]
        sim = read(lambda: network.sim)
        ports = read(lambda: [port for switch in network.switches
                              for port in switch.ports]
                     + [host.nic for host in network.hosts])
        markers = read(lambda: [port.marker
                                for port in network.all_marked_ports()])
        counters = engine_counters(sim)
        counters.update(pool_counters())
        counters.update({
            "net.link_pkts": read(lambda: sum(
                port.link.packets_delivered for port in ports)),
            "net.port_drops": read(lambda: sum(port.drops for port in ports)),
            "transport.pkts_sent": read(lambda: sum(
                s.packets_sent for s in senders)),
            "transport.retransmissions": read(lambda: sum(
                s.retransmissions for s in senders)),
            "transport.timeouts": read(lambda: sum(
                s.timeouts for s in senders)),
            "transport.marks_accepted": read(lambda: sum(
                s.marks_accepted for s in senders)),
            "transport.marks_filtered": read(lambda: sum(
                s.marks_filtered for s in senders)),
            "ecn.decisions": read(lambda: sum(
                m.packets_seen for m in markers)),
            "ecn.marked": read(lambda: sum(
                m.packets_marked for m in markers)),
        })
        counters["ecn.marked_share"] = read(
            lambda: counters["ecn.marked"] / counters["ecn.decisions"])
        counters["sim.events_per_pkt"] = read(
            lambda: counters["sim.events"] / counters["net.link_pkts"])
        queue_gbps = {str(q): rate for q, rate in result.queue_gbps.items()}
        counters["model.victim_gbps"] = queue_gbps["0"]
        counters["model.total_gbps"] = result.total_gbps
        return {
            # Simulated statistics only — the engine's event count is
            # deliberately not part of the digest, so an exact-tier
            # change that fuses events still verifies.
            "stats": {"queue_gbps": queue_gbps,
                      "pkts_sent": [s.packets_sent for s in senders]},
            "events": counters["sim.events"],
            "complete": all(rate > 0 for rate in queue_gbps.values()),
            "counters": counters,
        }

    return entry, report


def _prepare_fct(scheme: str, scheduler: str, profile: Any, seed: int,
                 topology: Optional[str]) -> Prepared:
    from repro.experiments.largescale import run_fct_point

    provenance: Dict[str, Any] = {}

    def entry() -> Any:
        return run_fct_point(scheme, scheduler, 0.5, profile=profile,
                             seed=seed, topology=topology,
                             provenance_out=provenance)

    def report(row: Any) -> Dict[str, Any]:
        engine = provenance.get("engine", {})
        counters = {
            "sim.events": engine.get("events_processed"),
            "sim.wheel_events": engine.get("wheel_events_processed"),
            "sim.heap_events": engine.get("heap_events_processed"),
            "sim.compactions": engine.get("compactions"),
            "sim.cancelled_pending": engine.get("cancelled_pending"),
            "model.fct_mean_us": read(lambda: row.overall.mean * 1e6),
            "model.fct_small_p99_us": read(lambda: row.small.p99 * 1e6),
            "model.flows_completed": row.completed,
        }
        counters.update(pool_counters())
        return {
            "stats": row.to_payload(),
            "events": counters["sim.events"],
            "complete": row.completed == row.n_flows,
            "counters": counters,
        }

    return entry, report


def prepare_fct_leafspine48(seed: int, quick: bool) -> Prepared:
    """The paper's 48-host FCT point: DWRR + enqueue-side PMSB."""
    from repro.experiments.scale import PAPER

    profile = dataclasses.replace(
        PAPER, name="perfbench-leafspine48", size_scale=0.15, time_cap=2.0,
        largescale_flows=400 // (QUICK_DIVISOR if quick else 1))
    return _prepare_fct("pmsb", "dwrr", profile, seed, None)


def prepare_fct_fattree1024(seed: int, quick: bool) -> Prepared:
    """The big-fabric rung: WFQ + dequeue-side TCN on 1024 hosts."""
    from repro.experiments.scale import BENCH

    profile = dataclasses.replace(
        BENCH, name="perfbench-fattree1024", size_scale=0.15,
        largescale_flows=200 // (QUICK_DIVISOR if quick else 1))
    return _prepare_fct("tcn", "wfq", profile, seed, FATTREE_1024)


PREPARE = {
    "engine_wheel": prepare_engine_wheel,
    "engine_timers": prepare_engine_timers,
    "incast_pmsb": prepare_incast_pmsb,
    "fct_leafspine48": prepare_fct_leafspine48,
    "fct_fattree1024": prepare_fct_fattree1024,
}


# -- entry points ----------------------------------------------------------

def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    entry, report = PREPARE[args.workload](args.point_seed, args.quick)
    setup_s = time.monotonic() - args.spawned_at
    out: Dict[str, Any] = {"workload": args.workload, "setup_s": setup_s}
    if args.setup_only:
        return out
    if args.trace:
        import cProfile
        from .layers import summarize_profile
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        raw = entry()
        profiler.disable()
        out["wall_s"] = time.perf_counter() - start
        out.update(report(raw))
        out["counters"].update(summarize_profile(profiler.getstats()))
    else:
        start = time.perf_counter()
        raw = entry()
        out["wall_s"] = time.perf_counter() - start
        out.update(report(raw))
    return out


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run")
    run.add_argument("workload", choices=sorted(PREPARE))
    run.add_argument("--point-seed", type=int, required=True)
    run.add_argument("--spawned-at", type=float, required=True)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--setup-only", action="store_true")
    probes = commands.add_parser("probes")
    probes.add_argument("names", nargs="+")
    probes.add_argument("--work-dir", required=True)
    probes.add_argument("--quick", action="store_true")
    pick = commands.add_parser("pick")
    pick.add_argument("--topology", required=True)
    for name in ("seed", "flows", "target-links"):
        pick.add_argument(f"--{name}", type=int, required=True)
    args = parser.parse_args(argv)
    if args.command == "run":
        result = run_workload(args)
    elif args.command == "probes":
        from .probes import run_probes
        result = run_probes(args.names, args.work_dir, args.quick)
    else:
        from .inputs import pick_program_seed
        chosen, links = pick_program_seed(
            args.seed, args.topology, args.flows, args.target_links)
        result = {"program_seed": chosen, "link_traversals": links}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
