"""E09 / Fig. 9 — RTT distribution of the shared-queue flows.

Paper setup: DWRR, two equal queues (1 vs 4 flows), PMSB/PMSB(e) port
threshold 12 packets, PMSB(e) RTT threshold 40 µs, TCN 39 µs, per-queue
standard 16 packets.  Paper result: PMSB −63%/−62.6% (avg/99th) vs
per-queue standard; PMSB(e) −55.8%/−55.5%.  Expected shape: PMSB lowest,
PMSB(e) close, per-queue standard highest among buffer-based schemes.
"""

from conftest import heading, run_once

from repro.experiments.scale import BENCH
from repro.experiments.static_flows import rtt_distribution
from repro.store.spec import RunConfig

STATIC = RunConfig(duration=BENCH.static_duration)


def test_fig09_rtt_distributions(benchmark):
    results = run_once(
        benchmark,
        lambda: rtt_distribution(config=STATIC),
    )
    heading("Fig. 9 — queue-2 flow RTT by scheme (paper: PMSB lowest)")
    print(f"{'scheme':18s} {'mean':>10s} {'p95':>10s} {'p99':>10s}")
    for name, stats in results.items():
        print(f"{name:18s} {stats.mean*1e6:8.1f}us "
              f"{stats.p95*1e6:8.1f}us {stats.p99*1e6:8.1f}us")
    base = results["Per-Queue(std)"]
    print(f"\nPMSB    mean reduction vs per-queue(std): "
          f"{100*(1-results['PMSB'].mean/base.mean):4.1f}% (paper: 63.2%)")
    print(f"PMSB(e) mean reduction vs per-queue(std): "
          f"{100*(1-results['PMSB(e)'].mean/base.mean):4.1f}% (paper: 55.8%)")
    assert results["PMSB"].mean < base.mean
    assert results["PMSB(e)"].mean < base.mean
