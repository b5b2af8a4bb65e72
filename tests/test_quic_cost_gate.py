"""A cost gate that times nothing: what 200 echo requests on one
long-lived connection cost in scheduler calls and protoop runs.

The send loop makes a ``prepare_packet`` attempt only when something is
queued or somebody is attached to the attempt's operations, so on a
plain pair every scheduler call builds a packet.  The counts below are
seed-determined; a change that brings speculative attempts back moves
them, whatever the host is doing.
"""

import repro.core.scheduler as scheduler
from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins.monitoring import build_monitoring_plugin
from repro.plugins.multipath import build_multipath_plugin
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import reset_instance_counter

REQUESTS = 200


def echo_requests(monkeypatch, plugins=(), local_addresses=()) -> dict:
    """Handshake, then ``REQUESTS`` sequential 64 B request / 512 B
    response streams; returns the counts summed over both ends."""
    reset_instance_counter()
    calls = []
    schedule = scheduler.schedule_packet_frames
    monkeypatch.setattr(
        scheduler, "schedule_packet_frames",
        lambda *args: calls.append(1) or schedule(*args))
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=1, bw_mbps=1000)
    conns = []

    def on_connection(conn):
        conns.append(conn)
        for build in plugins:
            PluginInstance(build(), conn).attach()

        def on_request(stream_id, data, fin):
            if fin:
                conn.send_stream_data(stream_id, b"r" * 512, fin=True)
        conn.on_stream_data = on_request

    ServerEndpoint(sim, topo.server, "server.0", 443,
                   on_connection=on_connection)
    client = ClientEndpoint(
        sim, topo.client, "client.0", 5000, "server.0", 443,
        configuration=QuicConfiguration(is_client=True, seed=7))
    client.conn.extra_local_addresses = list(local_addresses)
    for build in plugins:
        PluginInstance(build(), client.conn).attach()
    conns.append(client.conn)
    answered = []
    client.conn.on_stream_data = (
        lambda stream_id, data, fin: fin and answered.append(stream_id))
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10)
    for i in range(REQUESTS):
        stream_id = client.conn.create_stream()
        client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
        client.pump()
        assert sim.run_until(lambda: len(answered) == i + 1, timeout=10)
    return {
        "scheduler_calls": len(calls),
        "packets_sent": sum(c.stats["packets_sent"] for c in conns),
        "protoop_runs": sum(c.protoops.runs for c in conns),
    }


def test_plain_pair_schedules_only_packets_it_sends(monkeypatch):
    cost = echo_requests(monkeypatch)
    assert cost["scheduler_calls"] == cost["packets_sent"]
    # 84.5 runs a request, handshake included (104.6 with an ACK-only
    # packet per response, 124.6 with one speculative attempt per send
    # loop as well).
    assert cost["protoop_runs"] <= 85 * REQUESTS


def test_monitoring_hooks_none_of_the_attempt_and_keeps_the_skip(monkeypatch):
    plain = echo_requests(monkeypatch)
    cost = echo_requests(monkeypatch, plugins=(build_monitoring_plugin,))
    assert cost["scheduler_calls"] == cost["packets_sent"]
    assert cost["packets_sent"] == plain["packets_sent"]
    assert cost["protoop_runs"] <= 85 * REQUESTS


#: What the commit before the skip read for the multipath pair below.
MULTIPATH_BASELINE = {"scheduler_calls": 1414, "packets_sent": 608,
                      "protoop_runs": 25069}


def test_multipath_observes_every_attempt_as_before(monkeypatch):
    """``mp_ack_booker`` sits on ``before_sending_packet`` and the path
    scheduler replaces ``select_sending_path``: every attempt is made,
    and the counts are the ones read before the skip existed."""
    cost = echo_requests(monkeypatch, plugins=(build_multipath_plugin,),
                         local_addresses=("client.1",))
    assert cost == MULTIPATH_BASELINE
    assert cost["scheduler_calls"] > cost["packets_sent"]
