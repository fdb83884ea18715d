"""Property-based integration: conservation invariants on random scenarios.

Hypothesis generates small but varied scenarios — random scheme,
scheduler, flow mix and sizes — and every run must satisfy the
substrate's conservation laws:

- every finite flow completes (given enough time);
- the receiver's delivered prefix equals the flow size;
- packets are conserved: delivered + in-buffers + dropped accounts for
  everything sent;
- no drops occur when buffers are deep and ECN is active.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.scenario import make_scheme
from repro.metrics.fct import FctCollector
from repro.net.topology import TopologySpec
from repro.scheduling.dwrr import DwrrScheduler
from repro.scheduling.strict_priority import StrictPriorityScheduler
from repro.scheduling.wfq import WfqScheduler
from repro.sim.engine import Simulator
from repro.transport.endpoints import open_flow
from repro.transport.flow import Flow

pytestmark = pytest.mark.slow

SCHEDULERS = {
    "dwrr": lambda n: DwrrScheduler(n),
    "wfq": lambda n: WfqScheduler(n),
    "sp": lambda n: StrictPriorityScheduler(n),
}

scenario_strategy = st.fixed_dictionaries(
    {
        "scheme": st.sampled_from(["pmsb", "pmsb-e", "tcn", "per-port",
                                   "per-queue-standard"]),
        "scheduler": st.sampled_from(sorted(SCHEDULERS)),
        "n_queues": st.integers(min_value=1, max_value=4),
        "flow_sizes": st.lists(
            st.integers(min_value=1_000, max_value=120_000),
            min_size=1, max_size=6,
        ),
        "port_threshold": st.integers(min_value=4, max_value=40),
    }
)


@given(scenario=scenario_strategy)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_conservation_invariants(scenario):
    sim = Simulator()
    scheme = make_scheme(
        scenario["scheme"],
        n_queues=scenario["n_queues"],
        port_threshold_packets=scenario["port_threshold"],
        standard_threshold_packets=scenario["port_threshold"],
    )
    n_flows = len(scenario["flow_sizes"])
    network = TopologySpec("single-bottleneck", senders=n_flows).build(
        sim, lambda: SCHEDULERS[scenario["scheduler"]](scenario["n_queues"]),
        scheme.marker_factory)
    collector = FctCollector()
    handles = []
    for index, size in enumerate(scenario["flow_sizes"]):
        flow = Flow(src=index, dst=n_flows, size_bytes=size,
                    service=index % scenario["n_queues"])
        handles.append(
            open_flow(network, flow, scheme.transport_config(),
                      on_complete=collector.on_complete)
        )
    sim.run(until=0.5)

    # Every flow completed, exactly once.
    assert len(collector) == n_flows
    for handle in handles:
        assert handle.fct is not None and handle.fct > 0
        # Receiver got the whole flow in order.
        assert handle.receiver.expected_seq == handle.flow.size_packets
        # Sender acknowledged everything it owed.
        assert handle.sender.snd_una == handle.flow.size_packets

    # The fabric drained completely.
    for switch in network.switches:
        for port in switch.ports:
            assert port.packet_count == 0
    # Deep buffers + ECN: loss-free operation.
    assert network.observed_ports("bottleneck")[0].drops == 0
