"""Engineering benchmark — invariant-auditor overhead.

Not a paper artifact: guards the opt-in contract of
:mod:`repro.sim.audit`.  With no auditor constructed the datapath must
carry **zero** audit hooks — structurally verified below, which is what
actually pins the disabled-path cost to nothing — and an audited run
leaves no hook behind: a later unaudited run makes exactly as many
Python calls.  A timed comparison documents the price of auditing.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import heading, run_once

from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow


def _build(audit: bool):
    sim = Simulator()
    auditor = FabricAuditor(sim) if audit else None
    network = TopologySpec("single-bottleneck", senders=9).build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
    if auditor is not None:
        auditor.attach_network(network)
    for i in range(9):
        open_flow(network, Flow(src=i, dst=9, service=0 if i == 0 else 1))
    return sim, network


def _run(audit: bool) -> int:
    sim, _network = _build(audit)
    sim.run(until=0.004)
    return sim.events_processed


def test_disabled_auditor_installs_no_hooks(benchmark):
    """The structural half of the "zero cost when disabled" contract."""
    def run():
        sim, network = _build(audit=False)
        sim.run(until=0.004)
        return sim, network

    sim, network = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Audit overhead — disabled path carries no hooks")
    ports = network.ports()
    print(f"{len(ports)} ports checked, {sim.events_processed} events")
    assert sim.auditor is None
    for port in ports:
        assert port.observers == ()
        assert port.scheduler.clear_observer is None


def test_audited_run_same_schedule(benchmark):
    """Auditing must observe, never perturb: identical event schedule."""
    def run():
        return _run(audit=False), _run(audit=True)

    plain, audited = benchmark.pedantic(run, rounds=1, iterations=1)
    heading("Audit overhead — audited run replays the same schedule")
    print(f"events without audit {plain}, with audit {audited}")
    assert plain == audited


#: One unaudited run's Python calls, counted before and after one
#: audited run in a fresh interpreter (this file's other tests build
#: auditors, and a hook installed once would already be in the count).
_COUNT_CALLS = """
import sys
from bench_audit_overhead import _run

def calls():
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    _run(False)
    sys.setprofile(None)
    return events.count("call")

_run(False)  # the first run pays for lazy imports; not counted
before = calls()
_run(True)
print(before, calls())
"""


def test_audited_run_leaves_no_hook(benchmark):
    """Exact half of the contract: a class-level wrapper installed by an
    auditor would add Python calls to every later unaudited run."""
    out = run_once(benchmark, lambda: subprocess.run(
        [sys.executable, "-c", _COUNT_CALLS], cwd=Path(__file__).parent,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=300).stdout)
    before, after = map(int, out.split())
    heading("Audit overhead — unaudited calls before/after an audited run")
    print(f"python calls before {before}, after {after}")
    assert before == after


def test_audited_cost_factor(benchmark):
    """Timed half, for the record: min-of-3 disabled runs bracket
    min-of-3 audited runs.  Host load moves the disabled-vs-disabled
    spread, so it is printed, not asserted (the call count above is the
    exact check)."""
    def timed(audit: bool, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _run(audit)
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        _run(False)  # warm caches/allocator before any measurement
        _run(True)
        return timed(False), timed(True), timed(False)

    plain_a, audited, plain_b = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    heading("Audit overhead — wall-clock cost")
    ratio = audited / min(plain_a, plain_b)
    spread = abs(plain_a - plain_b) / min(plain_a, plain_b)
    print(f"disabled {min(plain_a, plain_b) * 1e3:.1f} ms | "
          f"audited {audited * 1e3:.1f} ms ({ratio:.2f}x) | "
          f"disabled-vs-disabled spread {spread * 100:.1f}%")
    # Audited runs do real work per event; just sanity-bound the factor.
    assert ratio < 25.0
