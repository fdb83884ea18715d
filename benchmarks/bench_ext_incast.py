"""E-INCAST — the partition/aggregate incast microbenchmark.

The canonical datacenter stress test: N workers answer an aggregator
simultaneously through one moderately buffered port.  The synchronized
initial burst overwhelms any scheme; what distinguishes them is how
quickly senders back off afterwards.  ECN-based marking (PMSB here)
reduces both retransmission timeouts and the tail FCT relative to plain
drop-tail, and the gap widens with fan-in.
"""

from conftest import heading, run_once

from repro.experiments.families import INCAST
from repro.store import RunConfig, run_sweep


def test_incast_fanin_sweep(benchmark):
    def experiment():
        return {
            scheme: run_sweep(INCAST, {"scheme_name": (scheme,)},
                              RunConfig(duration=0.08))
            for scheme in ("pmsb", "none")
        }

    results = run_once(benchmark, experiment)
    heading("E-INCAST — synchronized fan-in sweep, 20 KB responses, "
            "128-packet buffer")
    print(f"{'scheme':10s} {'fanin':>6s} {'drops':>6s} {'RTOs':>5s} "
          f"{'p99 FCT':>9s} {'completed':>10s}")
    for scheme, rows in results.items():
        for row in rows:
            p99 = (f"{row.fct_p99 * 1e3:7.2f}ms"
                   if row.fct_p99 else "      --")
            print(f"{row.scheme:10s} {row.fanin:6d} {row.drops:6d} "
                  f"{row.retransmission_timeouts:5d} {p99} "
                  f"{row.completed:7d}/{row.fanin}")

    pmsb = {row.fanin: row for row in results["pmsb"]}
    droptail = {row.fanin: row for row in results["none"]}
    # Everyone finishes; at high fan-in ECN beats drop-tail on the tail.
    for rows in results.values():
        assert all(row.completed == row.fanin for row in rows)
    assert pmsb[64].fct_p99 < droptail[64].fct_p99
    assert (pmsb[64].retransmission_timeouts
            < droptail[64].retransmission_timeouts)
