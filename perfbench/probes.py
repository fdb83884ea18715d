"""Layer probes: thin layers driven alone through their public functions.

Each probe runs for at least half a second (a twentieth of that under
``--quick``) and reports the cost of one unit of the layer's work.  The
marker probes report the *difference* between a port carrying the marker
and the same port carrying ``NullMarker``, in alternating rounds so that
drift cancels.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from .catalog import QUICK_DIVISOR

MIN_SECONDS = 0.5
#: One round yields (seconds, units of work done).
Round = Callable[[], Tuple[float, int]]


def _per_unit(one_round: Round, min_seconds: float) -> float:
    seconds, units = 0.0, 0
    while seconds < min_seconds:
        round_seconds, round_units = one_round()
        seconds += round_seconds
        units += round_units
    return seconds / units


# -- sim -------------------------------------------------------------------

def _noop() -> None:
    return None


def probe_schedule(min_seconds: float) -> float:
    """ns per ``Simulator.schedule`` into the wheel window."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    rng = random.Random(1)
    delays = [rng.choice((0.5e-6, 1e-6, 2e-6, 5e-6, 50e-6, 1e-3))
              for _ in range(1024)]

    def one_round() -> Tuple[float, int]:
        schedule = sim.schedule
        start = time.perf_counter()
        for index in range(20000):
            schedule(delays[index & 1023], _noop)
        seconds = time.perf_counter() - start
        sim.clear()
        return seconds, 20000

    return _per_unit(one_round, min_seconds) * 1e9


def probe_cancel(min_seconds: float) -> float:
    """ns per ``Event.cancel`` of a heap-tier timer (compaction included)."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def one_round() -> Tuple[float, int]:
        events = [sim.schedule(10e-3 + index * 1e-6, _noop)
                  for index in range(20000)]
        start = time.perf_counter()
        for event in events:
            event.cancel()
        seconds = time.perf_counter() - start
        sim.clear()
        return seconds, len(events)

    return _per_unit(one_round, min_seconds) * 1e9


# -- net / scheduling / ecn ------------------------------------------------

class _Sink:
    """Terminal device: the far end of the probed port's link."""

    def receive(self, packet: Any) -> None:
        from repro.net.packet import release
        release(packet)


def _port_round(scheduler_factory: Callable[[], Any],
                marker_factory: Callable[[], Any],
                packets: int = 16000, burst: int = 32) -> Tuple[float, int]:
    """Push ``packets`` through one port in same-instant bursts (so the
    queue builds and markers see occupancy), draining after each."""
    from repro.net.link import Link
    from repro.net.packet import make_data
    from repro.net.port import Port
    from repro.sim.engine import Simulator

    sim = Simulator()
    port = Port(sim, Link(sim, 10e9, 5e-6, dst=_Sink()),
                scheduler_factory(), marker_factory())
    n_queues = port.n_queues
    start = time.perf_counter()
    seq = 0
    for _ in range(packets // burst):
        for index in range(burst):
            queue = index % n_queues
            port.enqueue(make_data(1, 0, 1, seq, service=queue), queue)
            seq += 1
        sim.run()
    return time.perf_counter() - start, seq


def probe_port(min_seconds: float) -> float:
    """ns per packet through ``Port.enqueue`` → drain, FIFO + NullMarker."""
    from repro.ecn.base import NullMarker
    from repro.scheduling.fifo import FifoScheduler

    return _per_unit(lambda: _port_round(lambda: FifoScheduler(1), NullMarker),
                     min_seconds) * 1e9


def _marker_cost(marker_factory: Callable[[], Any],
                 min_seconds: float) -> float:
    """ns per marking decision: marked port minus NullMarker port."""
    from repro.ecn.base import NullMarker
    from repro.scheduling.dwrr import DwrrScheduler

    def scheduler() -> Any:
        return DwrrScheduler(8)

    with_marker: List[float] = []
    without: List[float] = []
    spent = 0.0
    while spent < min_seconds or len(with_marker) < 3:
        seconds, units = _port_round(scheduler, marker_factory)
        with_marker.append(seconds / units)
        spent += seconds
        seconds, units = _port_round(scheduler, NullMarker)
        without.append(seconds / units)
    return (statistics.median(with_marker) - statistics.median(without)) * 1e9


def probe_pmsb(min_seconds: float) -> float:
    from repro.core.pmsb import PmsbMarker
    return _marker_cost(lambda: PmsbMarker(12.0), min_seconds)


def probe_perport(min_seconds: float) -> float:
    from repro.ecn.per_port import PerPortMarker
    return _marker_cost(lambda: PerPortMarker(12.0), min_seconds)


def probe_tcn(min_seconds: float) -> float:
    from repro.ecn.tcn import TcnMarker
    # Drain time of 16 MTUs at 10 Gbps, the static experiments' default.
    return _marker_cost(lambda: TcnMarker(16 * 1500 * 8.0 / 10e9),
                        min_seconds)


def _scheduler_cost(factory: Callable[[], Any], min_seconds: float) -> float:
    """ns per packet through ``enqueue`` + ``dequeue`` on 8 queues."""
    from repro.net.packet import make_data, release

    scheduler = factory()
    packets = [make_data(1, 0, 1, seq, service=seq % 8) for seq in range(64)]

    def one_round() -> Tuple[float, int]:
        start = time.perf_counter()
        for _ in range(200):
            for packet in packets:
                scheduler.enqueue(packet.service, packet)
            while scheduler.dequeue() is not None:
                pass
        return time.perf_counter() - start, 200 * len(packets)

    cost = _per_unit(one_round, min_seconds) * 1e9
    for packet in packets:
        release(packet)
    return cost


def probe_dwrr(min_seconds: float) -> float:
    from repro.scheduling.dwrr import DwrrScheduler
    return _scheduler_cost(lambda: DwrrScheduler(8), min_seconds)


def probe_wfq(min_seconds: float) -> float:
    from repro.scheduling.wfq import WfqScheduler
    return _scheduler_cost(lambda: WfqScheduler(8), min_seconds)


# -- workloads / metrics ---------------------------------------------------

def probe_generate(min_seconds: float) -> float:
    """µs per generated flow (48 hosts, the paper's size mix)."""
    from repro.sim.rng import make_rng
    from repro.workloads.distributions import PAPER_MIX
    from repro.workloads.generator import PoissonFlowGenerator

    sizes = PAPER_MIX.scaled(0.15)
    seeds = iter(range(1, 1 << 30))

    def one_round() -> Tuple[float, int]:
        generator = PoissonFlowGenerator(
            make_rng(next(seeds)), list(range(48)), sizes, load=0.5,
            link_rate_bps=10e9)
        start = time.perf_counter()
        flows = generator.generate(n_flows=400)
        return time.perf_counter() - start, len(flows)

    return _per_unit(one_round, min_seconds) * 1e6


def probe_summary(min_seconds: float) -> float:
    """µs per flow for ``FctCollector.summary`` + ``summary_by_class``."""
    from repro.metrics.fct import FctCollector
    from repro.sim.rng import make_rng
    from repro.transport.flow import Flow
    from repro.workloads.distributions import PAPER_MIX

    rng = make_rng(1)
    sizes = PAPER_MIX.scaled(0.15)
    collector = FctCollector(size_scale=0.15)
    for index in range(2000):
        flow = Flow(src=0, dst=1, size_bytes=sizes.sample(rng),
                    flow_id=index + 1)
        collector.on_complete(flow, float(rng.exponential(1e-3)), None)

    def one_round() -> Tuple[float, int]:
        start = time.perf_counter()
        collector.summary()
        collector.summary_by_class()
        return time.perf_counter() - start, len(collector)

    return _per_unit(one_round, min_seconds) * 1e6


# -- store -----------------------------------------------------------------

def _store_fixture(work_dir: str) -> Tuple[Any, List[Any], Any, Any]:
    from repro.experiments.scale import BENCH
    from repro.metrics.stats import summarize
    from repro.store.runstore import RunStore, make_provenance
    from repro.store.spec import ExperimentSpec

    store = RunStore(os.path.join(work_dir, f"probe-store-{os.getpid()}"))
    specs = [ExperimentSpec.create("perfbench-probe", scheme="pmsb",
                                   scheduler="dwrr", load=0.5, seed=seed,
                                   profile=BENCH)
             for seed in range(200)]
    block = vars(summarize([1e-4 * (index + 1) for index in range(120)]))
    payload = {"scheme": "PMSB", "scheduler": "dwrr", "load": 0.5,
               "n_flows": 120, "completed": 120, "overall": block,
               "small": block, "medium": block, "large": block}
    provenance = make_provenance(
        profile_name="bench", elapsed_s=1.0,
        engine={"events_processed": 100000})
    return store, specs, payload, provenance


def probe_store_put(min_seconds: float, work_dir: str) -> float:
    """µs per ``RunStore.put`` of one FCT-row-sized record."""
    store, specs, payload, provenance = _store_fixture(work_dir)

    def one_round() -> Tuple[float, int]:
        start = time.perf_counter()
        for spec in specs:
            store.put(spec, payload, provenance)
        return time.perf_counter() - start, len(specs)

    return _per_unit(one_round, min_seconds) * 1e6


def probe_store_get(min_seconds: float, work_dir: str) -> float:
    """µs per ``RunStore.get`` hit."""
    store, specs, payload, provenance = _store_fixture(work_dir)
    for spec in specs:
        store.put(spec, payload, provenance)

    def one_round() -> Tuple[float, int]:
        start = time.perf_counter()
        for spec in specs:
            if store.get(spec) is None:
                raise RuntimeError("store probe: record went missing")
        return time.perf_counter() - start, len(specs)

    return _per_unit(one_round, min_seconds) * 1e6


PROBES: Dict[str, Callable[..., float]] = {
    "sim.schedule_ns": probe_schedule,
    "sim.cancel_ns": probe_cancel,
    "net.port_ns_per_pkt": probe_port,
    "scheduling.dwrr_ns_per_pkt": probe_dwrr,
    "scheduling.wfq_ns_per_pkt": probe_wfq,
    "ecn.pmsb_ns_per_decision": probe_pmsb,
    "ecn.perport_ns_per_decision": probe_perport,
    "ecn.tcn_ns_per_decision": probe_tcn,
    "workloads.gen_us_per_flow": probe_generate,
    "metrics.summary_us_per_flow": probe_summary,
    "store.put_us": probe_store_put,
    "store.get_us": probe_store_get,
}


def run_probes(names: List[str], work_dir: str,
               quick: bool) -> Dict[str, Any]:
    """Run the named probes; one whose layer surface is gone reads None."""
    min_seconds = MIN_SECONDS / (QUICK_DIVISOR if quick else 1)
    results: Dict[str, Any] = {}
    for name in names:
        probe = PROBES[name]
        extra = (work_dir,) if name.startswith("store.") else ()
        try:
            results[name] = probe(min_seconds, *extra)
        except (ImportError, AttributeError, TypeError):
            results[name] = None
    return {"probes": results}
