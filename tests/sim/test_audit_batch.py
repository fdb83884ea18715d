"""Bucket-drain execution under the fabric auditor.

A full-stack audited incast must produce *identical* conservation and
ECN-legality ledgers whether the engine drains whole wheel buckets (the
fast loop) or pops one heap event at a time (``slow_path=True``).  The
auditor is the strictest observer the datapath has — every
enqueue/dequeue/drop flows through its per-port ledgers and
``verify_fabric`` closes the global conservation equation — so ledger
equality here means the bucket drain is semantically invisible.
"""

from repro.core.pmsb import PmsbMarker
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.sim.audit import FabricAuditor
from repro.sim.engine import Simulator
from repro.transport.base import DctcpConfig
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow


def audited_incast(slow_path, duration=0.004):
    """Run the 1:8 PMSB incast under the auditor; return ledger tuples."""
    sim = Simulator(slow_path=slow_path)
    auditor = FabricAuditor(sim)
    net = TopologySpec("single-bottleneck", senders=9).build(
        sim, lambda: DwrrScheduler(2), lambda: PmsbMarker(16))
    auditor.attach_network(net)
    flows = [Flow(flow_id=i, src=i, dst=9, service=0 if i == 0 else 1)
             for i in range(9)]
    handles = [open_flow(net, flow, DctcpConfig()) for flow in flows]
    for handle in handles:
        auditor.watch_flow(handle)
    sim.run(until=duration)
    auditor.verify_fabric()

    ledgers = {}
    for port, state in sorted(auditor._ports.items(),
                              key=lambda item: item[0].name):
        ledgers[port.name] = (
            state.enq_packets, state.enq_bytes,
            state.tx_packets, state.tx_bytes,
            state.drops, dict(state.link_drops),
            sorted(state.transit_ce.values()),
        )
    totals = {
        "events": sim.events_processed,
        "checks_positive": auditor.checks > 0,
        "acks": sorted(h.sender.acks_received for h in handles),
        "marked": sorted(h.receiver.marked_packets for h in handles),
        "received": sorted(h.receiver.packets_received for h in handles),
        "snd_una": sorted(h.sender.snd_una for h in handles),
    }
    return ledgers, totals


class TestAuditedBatchEquivalence:
    def test_ledgers_identical_batch_vs_single(self):
        fast_ledgers, fast_totals = audited_incast(slow_path=False)
        slow_ledgers, slow_totals = audited_incast(slow_path=True)
        assert fast_ledgers == slow_ledgers
        assert fast_totals == slow_totals
        # The scenario must actually exercise the datapath.
        assert fast_totals["events"] > 10_000
        assert sum(fast_totals["marked"]) > 0
