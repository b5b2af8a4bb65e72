"""Plugin composition (§4.5): orthogonal plugins on one connection.

"Given the isolation provided by PQUIC, it is possible to load different
plugins on a given PQUIC implementation provided that they do not replace
the same protocol operation.  All the plugins discussed in this section
have orthogonal features."
"""

import pytest

from repro.core import PluginInstance
from repro.core.protoop import Anchor, ProtoopError
from repro.netsim import Simulator, symmetric_topology
from repro.plugins.ccontrol import build_ccontrol_plugin
from repro.plugins.datagram import DatagramSocket, build_datagram_plugin
from repro.plugins.monitoring import MonitoringCollector, build_monitoring_plugin
from repro.plugins.multipath import build_multipath_plugin
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.trace import PreProfiler


def setup_composed(builders_client, builders_server, loss=0, seed=3):
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=loss,
                              seed=seed)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    client.conn.extra_local_addresses = ["client.1"]
    instances = [PluginInstance(b(), client.conn) for b in builders_client]
    for inst in instances:
        inst.attach()
    state = {}

    def on_conn(conn):
        for b in builders_server:
            PluginInstance(b(), conn).attach()
        state["sconn"] = conn

    server.on_connection = on_conn
    client.connect()
    assert sim.run_until(
        lambda: client.conn.is_established and "sconn" in state, timeout=5)
    return sim, client, state, instances


def test_four_orthogonal_plugins_compose():
    """Monitoring + datagram + multipath + bytecode congestion control,
    all live on one connection, streams and messages flowing."""
    builders = [build_monitoring_plugin, build_datagram_plugin,
                build_multipath_plugin, build_ccontrol_plugin]
    sim, client, state, instances = setup_composed(builders, builders)
    collector = MonitoringCollector()
    collector.attach(client.conn)
    messages = []
    DatagramSocket(state["sconn"], on_message=messages.append)
    sock = DatagramSocket(client.conn)
    received = [0]
    done = [False]
    state["sconn"].on_stream_data = lambda sid, d, fin: (
        received.__setitem__(0, received[0] + len(d)),
        done.__setitem__(0, fin))

    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"c" * 400_000, fin=True)
    for i in range(20):
        sock.send(b"msg-%02d" % i)
    client.pump()
    assert sim.run_until(lambda: done[0] and len(messages) == 20, timeout=60)
    assert received[0] == 400_000

    # Every plugin demonstrably acted:
    assert len(client.conn.plugins) == 4
    # - multipath used both paths
    pns = [p.space.next_packet_number for p in client.conn.paths]
    assert len(pns) == 2 and min(pns) > 0
    # - datagram kept boundaries
    assert messages[0] == b"msg-00"
    client.close()
    # - monitoring exported its final report
    assert collector.reports
    assert collector.reports[-1]["packets_sent"] > 100


def test_combined_overhead_reasonable():
    """§4.5: 'plugins with orthogonal features are efficiently combined'
    — the composed connection still completes in comparable simulated
    time."""
    sim1, client1, state1, _ = setup_composed([], [])
    done = [False]
    state1["sconn"].on_stream_data = lambda sid, d, fin: done.__setitem__(0, fin)
    t0 = sim1.now
    sid = client1.conn.create_stream()
    client1.conn.send_stream_data(sid, b"x" * 200_000, fin=True)
    client1.pump()
    assert sim1.run_until(lambda: done[0], timeout=60)
    plain = sim1.now - t0

    builders = [build_monitoring_plugin, build_datagram_plugin]
    sim2, client2, state2, _ = setup_composed(builders, builders)
    done2 = [False]
    state2["sconn"].on_stream_data = lambda sid, d, fin: done2.__setitem__(0, fin)
    t0 = sim2.now
    sid = client2.conn.create_stream()
    client2.conn.send_stream_data(sid, b"x" * 200_000, fin=True)
    client2.pump()
    assert sim2.run_until(lambda: done2[0], timeout=60)
    composed = sim2.now - t0
    # Simulated completion time is protocol-determined: plugins add
    # (host) CPU, not simulated wire time.
    assert composed < plain * 1.5


def test_conflicting_replacements_roll_back():
    """Two plugins replacing select_sending_path cannot coexist (§4.5:
    'provided that they do not replace the same protocol operation')."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    PluginInstance(build_multipath_plugin("rr"), client.conn).attach()
    second = PluginInstance(build_multipath_plugin("lowrtt"), client.conn)
    with pytest.raises(ProtoopError):
        second.attach()
    assert "org.pquic.multipath" in client.conn.plugins  # first one intact


@pytest.mark.parametrize("controller", [None, "aimd", "fixed"])
def test_window_published_whoever_moves_it(controller):
    """Monitoring plus a congestion controller — NewReno, or the CC
    plugin replacing it — on one lossy upload.  The host releases flight
    and publishes the window itself, so ``cc_window_updated`` (and with
    it monitoring's ``cwnd_observer``) runs once per acked or lost
    in-flight packet, undone loss and persistent-congestion collapse,
    whoever moved the window, and flight drains to zero."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=2, seed=4)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    conn = client.conn
    profiler = PreProfiler().attach(conn)
    builders = [build_monitoring_plugin]
    if controller is not None:
        builders.append(lambda: build_ccontrol_plugin(controller))
    for build in builders:
        PluginInstance(build(), conn).attach()
    counts = {"moves": 0, "published": 0}

    def on_outcome(conn, args, result):
        counts["moves"] += args[0].in_flight

    def on_undo(conn, args, result):
        counts["moves"] += 1

    def on_window(conn, args, result):
        counts["published"] += 1

    for op in ("on_packet_acked", "on_packet_lost"):
        conn.protoops.attach(op, Anchor.POST, on_outcome)
    conn.protoops.attach("on_spurious_loss", Anchor.POST, on_undo)
    conn.protoops.attach("cc_window_updated", Anchor.POST, on_window)
    done = [False]
    server.on_connection = lambda sconn: setattr(
        sconn, "on_stream_data", lambda sid, d, fin: done.__setitem__(0, fin))
    client.connect()
    assert sim.run_until(lambda: conn.is_established, timeout=5)
    sid = conn.create_stream()
    conn.send_stream_data(sid, b"w" * 300_000, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0] and not conn.streams_send, timeout=60)

    assert conn.stats["packets_lost"] > 0
    moves = counts["moves"] + conn.stats["persistent_congestion"]
    assert counts["published"] == moves > 100
    observed = sum(rec.invocations for rec in profiler.records.values()
                   if rec.pluglet == "cwnd_observer")
    assert observed == moves
    assert [path.cc.bytes_in_flight for path in conn.paths] == [0] * len(conn.paths)


def test_composition_under_loss():
    builders = [build_monitoring_plugin, build_datagram_plugin,
                build_multipath_plugin]
    sim, client, state, _ = setup_composed(builders, builders, loss=3, seed=9)
    done = [False]
    state["sconn"].on_stream_data = lambda sid, d, fin: done.__setitem__(0, fin)
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"L" * 300_000, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=300)
