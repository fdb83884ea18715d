"""Engineering benchmark — invariant-auditor overhead.

Not a paper artifact: guards the opt-in contract of
:mod:`repro.sim.audit`.  With no auditor constructed the datapath must
carry **zero** audit hooks — structurally verified below, which is what
actually pins the disabled-path cost to nothing — and a timed
comparison of the same incast with and without auditing documents the
price of running audited (informational) while asserting the disabled
path stays within noise of the pre-audit baseline.
"""

import time

from conftest import heading

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


def test_disabled_overhead_within_noise(benchmark):
    """Timed half of the contract: min-of-N disabled runs stay within
    noise of each other whether or not the audit module was ever
    exercised in the process (there is no globally installed hook to
    pay for).  The audited/disabled ratio is printed for the record."""
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
    # The two disabled measurements bracket machine noise; they must
    # agree far more tightly than any real hook overhead would allow.
    # Generous bound: interleaved min-of-3 runs on a loaded CI box.
    assert spread < 0.35
    # Audited runs do real work per event; just sanity-bound the factor.
    assert ratio < 25.0
