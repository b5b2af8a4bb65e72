"""The TCP baseline of Figures 8 and 11: the tunnel's inner flow run
straight over the network, with no QUIC endpoint in the way."""

from __future__ import annotations

from repro.conformance.runner import build_topology
from repro.conformance.scenario import Scenario
from repro.netsim import Simulator
from repro.netsim.tcp import TcpBulkTransfer


def run_tcp_direct(scenario: Scenario) -> TcpBulkTransfer:
    """TCP Cubic moves the scenario's workload size over the first path
    of its network.  Returns the flow (``completed``, ``dct``)."""
    sim = Simulator()
    topo = build_topology(sim, scenario)
    flow = TcpBulkTransfer(sim, scenario.workload.size)
    flow.wire(
        sender_send=lambda seg: topo.client.sendto(
            seg, "client.0", 6000, "server.0", 6001),
        receiver_send=lambda seg: topo.server.sendto(
            seg, "server.0", 6001, "client.0", 6000),
    )
    topo.client.bind(6000, lambda d: flow.sender.on_segment(d.payload))
    topo.server.bind(6001, lambda d: flow.receiver.on_segment(d.payload))
    flow.start()
    sim.run_until(lambda: flow.completed, timeout=scenario.timeout)
    return flow
