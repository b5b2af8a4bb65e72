"""Monitoring plugin tests (§4.1)."""

import pytest

from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins.monitoring import (
    MonitoringCollector,
    PerformanceReport,
    build_monitoring_plugin,
)
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.vm.analysis.termination import check_termination


@pytest.fixture
def plugin():
    return build_monitoring_plugin()


def run_monitored_transfer(size=50_000, loss=0, seed=2):
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=loss, seed=seed)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    instance = PluginInstance(build_monitoring_plugin(), client.conn)
    instance.attach()
    collector = MonitoringCollector()
    collector.attach(client.conn)
    done = [False]
    server.on_connection = lambda conn: setattr(
        conn, "on_stream_data", lambda sid, d, fin: done.__setitem__(0, fin))
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"m" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=120)
    client.close()
    return client.conn, collector, instance


def test_paper_pluglet_count(plugin):
    """Table 2: the monitoring plugin has 14 pluglets."""
    assert len(plugin.pluglets) == 14


def test_all_pluglets_are_passive(plugin):
    """§4.1: 'passive pluglets, i.e. pluglets that hook to pre and post
    anchors'."""
    assert all(p.anchor in ("pre", "post") for p in plugin.pluglets)


def test_all_pluglets_proven_terminating(plugin):
    proven = sum(
        1 for p in plugin.pluglets if check_termination(p.instructions).proven
    )
    assert proven == len(plugin.pluglets)


def test_two_report_sets_exported():
    """§4.1: one PI set at the handshake, a second while active /at close."""
    conn, collector, _ = run_monitored_transfer()
    assert len(collector.reports) == 2
    handshake, final = collector.reports
    assert handshake["handshake_us"] > 0
    assert final["final_packets_sent"] > handshake["packets_sent"]


def test_counters_match_connection_stats():
    conn, collector, _ = run_monitored_transfer()
    final = collector.reports[-1]
    # The final report fires at connection_closing, before the CLOSE
    # packet itself is counted.
    assert conn.stats["packets_sent"] - final["final_packets_sent"] in (0, 1)
    assert final["final_packets_received"] == conn.stats["packets_received"]
    assert conn.stats["bytes_sent"] >= final["final_bytes_sent"]
    # The event-counted value lags the final snapshot by at most the
    # close packet itself.
    assert 0 <= final["final_packets_sent"] - final["packets_sent"] <= 1


def test_loss_and_rtt_indicators():
    conn, collector, _ = run_monitored_transfer(size=200_000, loss=3)
    final = collector.reports[-1]
    assert final["packets_lost"] > 0
    assert final["packets_lost"] == conn.stats["packets_lost"]
    assert 0 < final["rtt_min_us"] <= final["rtt_max_us"]
    assert final["final_srtt_us"] > 0
    assert final["max_cwnd"] >= 16 * 1024


def test_collector_forwarding():
    forwarded = []
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    PluginInstance(build_monitoring_plugin(), client.conn).attach()
    collector = MonitoringCollector(forward=forwarded.append)
    collector.attach(client.conn)
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    assert len(forwarded) == 1  # the handshake report
    report = PerformanceReport.parse(forwarded[0])
    assert report["handshake_packets"] >= 1


def test_monitoring_daemon_over_udp():
    """The §4.1 architecture end to end: the local daemon forwards PI
    blocks over (simulated) UDP to a remote collector."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    received = []
    topo.server.bind(9999, lambda d: received.append(d.payload))
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    PluginInstance(build_monitoring_plugin(), client.conn).attach()
    collector = MonitoringCollector(
        forward=lambda data: topo.client.sendto(
            data, "client.0", 9998, "server.0", 9999)
    )
    collector.attach(client.conn)
    client.connect()
    assert sim.run_until(lambda: bool(received), timeout=5)
    report = PerformanceReport.parse(received[0])
    assert report["handshake_us"] > 0


def test_plugin_stats_for_table2(plugin):
    stats = plugin.stats()
    assert stats["pluglets"] == 14
    assert stats["instructions"] > 100
    assert 0 < stats["compressed_bytes"] < stats["size_bytes"]
