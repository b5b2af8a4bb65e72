"""PTO probe behaviour at the connection level (RFC 9002 §6.2.4).

The acceptance scenario of the RFC 9002 recovery rework: when ACKs are
merely *delayed* (not dropped), a PTO expiry must send at most two probe
packets, must not reduce the congestion window, and must not invoke
``congestion_on_loss`` at all — a late ACK is not evidence of loss.
"""

import pytest

from repro.core.protoop import Anchor
from repro.netsim import Simulator, symmetric_topology
from repro.quic.connection import reset_instance_counter

from tests.test_quic_connection import build_pair, run_transfer
from tests.test_quic_endpoint import (
    assert_same_fires,
    both_timer_paths,
    timer_log,
)


def _delayed_ack_run(delay_s=1.0, observe=None):
    """Start a transfer, then stall the server->client direction so ACKs
    arrive late.  Returns (sim, client, state observed at PTO time)."""
    reset_instance_counter()
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
    client, server = build_pair(sim, topo)

    received = bytearray()

    def on_conn(conn):
        conn.on_stream_data = lambda sid, data, fin: received.extend(data)

    server.on_connection = on_conn
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5.0)
    if observe is not None:
        observe(client)

    stream_id = client.conn.create_stream()
    client.conn.send_stream_data(stream_id, b"z" * 60_000, fin=True)
    client.pump()
    # Let the transfer reach steady state (some ACKs processed).
    assert sim.run_until(
        lambda: client.conn.stats["packets_acked"] > 4, timeout=5.0)

    # Delay — do not drop — everything flowing back to the client.
    for link in topo.path_links:
        link.backward.delay = delay_s

    loss_invocations = []
    client.conn.protoops.attach(
        "congestion_on_loss", Anchor.POST,
        lambda conn, args, result: loss_invocations.append(args))

    cwnd_before = client.conn.paths[0].cc.cwnd
    probes_before = client.conn.stats["probes_sent"]
    assert sim.run_until(
        lambda: client.conn.stats["pto_fired"] >= 1, timeout=5.0)
    return sim, client, topo, {
        "cwnd_before": cwnd_before,
        "probes_before": probes_before,
        "loss_invocations": loss_invocations,
        "received": received,
    }


def test_pto_with_delayed_acks_probes_without_losses():
    sim, client, topo, state = _delayed_ack_run()
    conn = client.conn
    # The first expiry queued at most MAX_PTO_PROBES probe packets.
    assert 1 <= conn.stats["probes_sent"] - state["probes_before"] <= 2
    # No loss was declared and no congestion response happened.
    assert state["loss_invocations"] == []
    assert conn.stats["packets_lost"] == 0
    assert conn.paths[0].cc.cwnd >= state["cwnd_before"]
    assert conn.stats["pto_fired"] >= 1


def test_probe_count_bounded_per_expiry():
    sim, client, topo, state = _delayed_ack_run()
    conn = client.conn
    # Even with repeated (backed-off) expiries, each fires <= 2 probes.
    sim.run(until=sim.now + 0.6)
    assert conn.stats["pto_fired"] >= 1
    assert conn.stats["probes_sent"] <= 2 * conn.stats["pto_fired"]
    assert state["loss_invocations"] == []


def test_pto_backoff_resets_when_acks_resume():
    sim, client, topo, state = _delayed_ack_run(delay_s=0.8)
    conn = client.conn
    assert conn._pto_count >= 1
    # Restore the path; the delayed ACKs (already in flight) arrive.
    for link in topo.path_links:
        link.backward.delay = 0.01
    acked = conn.stats["packets_acked"]
    assert sim.run_until(
        lambda: conn.stats["packets_acked"] > acked, timeout=5.0)
    # Forward progress resets the backoff (RFC 9002 §6.2.1) and the
    # late ACKs never count packets lost.
    assert conn._pto_count == 0
    assert conn.stats["packets_lost"] == 0


def test_transfer_completes_after_delay_episode():
    sim, client, topo, state = _delayed_ack_run(delay_s=0.5)
    for link in topo.path_links:
        link.backward.delay = 0.01
    assert sim.run_until(
        lambda: len(state["received"]) == 60_000, timeout=30.0)


def test_conservation_and_probes_under_ambient_loss():
    """The send-side ledger stays exact with probes in play: every probe
    repeats frames of a packet that remains tracked, so
    sent == acked + lost + in_flight at all times."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=15, bw_mbps=10, loss_pct=2.0, seed=9)
    client, server = build_pair(sim, topo)
    data = run_transfer(sim, client, server, 120_000, timeout=120.0)
    assert data == b"z" * 120_000
    for conn in (client.conn, server.connections[0]):
        in_flight = len(conn.initial_space.sent) + sum(
            len(p.space.sent) for p in conn.paths)
        assert conn.stats["packets_sent"] == (
            conn.stats["packets_acked"] + conn.stats["packets_lost"]
            + in_flight)
    # 2% loss over ~120 kB makes real losses (and their congestion
    # response) all but certain.
    assert client.conn.stats["packets_lost"] > 0


def test_pto_expiry_fires_at_the_eager_instant(monkeypatch):
    """Under the lazily re-armed timer the PTO alarms (first expiry and
    its backed-off successor) go off when the eager reference path fires
    them, and the connection ends up in the same state."""

    def scenario():
        logs = []
        sim, client, _topo, _state = _delayed_ack_run(
            observe=lambda client: logs.append(timer_log(client.conn)))
        assert sim.run_until(
            lambda: client.conn.stats["pto_fired"] >= 2, timeout=5.0)
        return logs[0], dict(client.conn.stats), client.conn.protoops.runs

    (lazy_log, *lazy_state), (eager_log, *eager_state) = both_timer_paths(
        scenario, monkeypatch)
    assert lazy_state == eager_state
    assert sum(after[0] - before[0] for _, before, after in lazy_log) == 2
    assert_same_fires(lazy_log, eager_log)


def test_initial_probe_with_nothing_left_to_resend_is_a_ping():
    """The client's ClientHello is sent twice (its PTO fires before the
    server's reply arrives) and the ACK of the second copy is lost.  Its
    CRYPTO data is acknowledged through the first copy, so the probe has
    nothing to resend: it must still elicit an ACK (RFC 9002 §6.2.4), or
    the stuck packet keeps firing the Initial PTO and backs off every
    later PTO of the connection."""
    from repro.quic import QuicConfiguration
    from repro.quic.connection import QuicConnection
    from repro.quic.packet import FORM_LONG

    reset_instance_counter()
    client = QuicConnection(QuicConfiguration(is_client=True))
    server = QuicConnection(QuicConfiguration(is_client=False))
    (first, _), = client.datagrams_to_send(0.0)
    client.handle_timer(client.next_timer())  # Initial PTO: resend the CH
    (second, _), = client.datagrams_to_send(client.now)
    server.receive_datagram(first, 0.35)
    for payload, _ in server.datagrams_to_send(0.35):
        client.receive_datagram(payload, 0.4)
    client.datagrams_to_send(0.4)
    server.receive_datagram(second, 0.45)
    server.datagrams_to_send(0.45)  # its Initial ACK is lost
    space = client.initial_space
    assert space.ack_eliciting_in_flight == 1
    assert not client._crypto_send.has_pending

    client.handle_timer(space.pto_deadline(client.paths[0].rtt,
                                           client._pto_count))
    probes = [p for p, _ in client.datagrams_to_send(client.now)
              if p[0] & FORM_LONG]
    assert probes and space.ack_eliciting_in_flight == 2
    for payload in probes:
        server.receive_datagram(payload, client.now + 0.05)
    for payload, _ in server.datagrams_to_send(client.now + 0.05):
        client.receive_datagram(payload, client.now + 0.1)
    assert space.ack_eliciting_in_flight == 0
