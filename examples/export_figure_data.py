#!/usr/bin/env python3
"""Regenerate the paper's figure data as CSV files.

Runs the static-figure experiments and writes plot-ready CSVs into
``results/`` (or a directory given as argv[1]): CDFs for the RTT
figures, time series for the throughput figures, and sweep tables for
the rest.  Feed them to any plotting tool to redraw the paper.

Run:  python examples/export_figure_data.py [output_dir]
"""

import os
import sys

from repro.experiments import motivation, static_flows
from repro.experiments.analysis_validation import threshold_bound_sweep
from repro.metrics.export import rows_to_csv, series_to_csv
from repro.metrics.stats import empirical_cdf
from repro.store import RunConfig


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "results"
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def path(name):
        full = os.path.join(out_dir, name)
        written.append(full)
        return full

    # Fig. 1 — RTT CDF per active-queue count.
    print("fig1: per-queue standard threshold RTT ...")
    config = RunConfig(duration=0.02)
    rtt_by_queues = motivation.per_queue_standard_rtt(config=config)
    rows = [
        {"queues": n, "mean_us": s.mean * 1e6, "p95_us": s.p95 * 1e6,
         "p99_us": s.p99 * 1e6}
        for n, s in sorted(rtt_by_queues.items())
    ]
    import csv
    with open(path("fig01_rtt_vs_queues.csv"), "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    # Fig. 3/6/7 — per-port victim sweep.
    print("fig3/6/7: per-port victim configurations ...")
    victims = [
        motivation.per_port_victim(16.0, 8, config=config),
        motivation.per_port_victim(65.0, 8, config=config),
        motivation.per_port_victim(65.0, 40, config=config),
    ]
    rows_to_csv(victims, path("fig03_06_07_perport_victim.csv"))

    # Fig. 9 — RTT CDFs per scheme.
    print("fig9: RTT distributions by scheme ...")
    from repro.experiments.scenario import make_scheme, run_incast, incast_flows
    from repro.scheduling.dwrr import DwrrScheduler
    for name in ("pmsb", "pmsb-e", "tcn", "per-queue-standard"):
        scheme = make_scheme(name, n_queues=2, port_threshold_packets=12,
                             tcn_threshold=39e-6)
        result = run_incast(scheme, lambda: DwrrScheduler(2),
                            incast_flows([1, 4]), record_rtt=True,
                            config=config)
        samples = result.rtt_samples(queue_index=1)
        xs, ps = empirical_cdf(samples[len(samples) // 3:])
        slug = name.replace("-", "_")
        series_to_csv(xs * 1e6, ps, path(f"fig09_rtt_cdf_{slug}.csv"),
                      header=("rtt_us", "cum_prob"))

    # Fig. 15 — WFQ throughput time series.
    print("fig15: WFQ throughput series ...")
    policy = static_flows.scheduler_wfq(config=RunConfig(duration=0.04))
    for queue, (times, gbps) in policy.series.items():
        series_to_csv(times * 1e3, gbps / 1e9,
                      path(f"fig15_wfq_queue{queue + 1}.csv"),
                      header=("time_ms", "gbps"))

    # Theorem IV.1 sweep.
    print("theorem: threshold bound sweep ...")
    rows_to_csv(threshold_bound_sweep(config=config),
                path("theorem_iv1_sweep.csv"))

    print(f"\nwrote {len(written)} files:")
    for name in written:
        print(f"  {name}")


if __name__ == "__main__":
    main()
