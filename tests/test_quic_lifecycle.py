"""Connection lifecycle tests: close/drain state machine (RFC 9000 §10),
server-side eviction, CID retirement and many-connection churn."""

import pytest

from repro.netsim import Simulator, symmetric_topology
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.quic.connection import ConnectionState, reset_instance_counter
from repro.trace import MetricsRegistry

from tests.test_quic_endpoint import (
    assert_same_fires,
    both_timer_paths,
    timer_log,
)


def handshake(sim, topo, port=5000, server=None):
    client = ClientEndpoint(sim, topo.client, "client.0", port,
                            "server.0", 443)
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    return client


class TestStateMachine:
    def test_local_close_enters_closing_then_closed(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        client.close(3, "bye")
        assert client.conn.state is ConnectionState.CLOSING
        assert client.conn.closed
        assert client.conn.drain_deadline is not None
        # The drain timer must terminate the connection on its own.
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED, timeout=30)
        assert client.conn.drain_deadline is None
        assert client.conn.close_error == (3, "bye")

    def test_peer_close_enters_draining(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        conn = server.connections[0]
        client.close(0, "done")
        # The server sees CONNECTION_CLOSE and drains without replying.
        assert sim.run_until(
            lambda: conn.state is ConnectionState.DRAINING, timeout=5)
        sent_while_draining = conn.stats["packets_sent"]
        assert sim.run_until(
            lambda: conn.state is ConnectionState.CLOSED, timeout=30)
        assert conn.stats["packets_sent"] == sent_while_draining
        assert conn.close_error == (0, "done")

    def test_idle_timeout_closes_silently(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        # Let the post-handshake exchange settle (the server's
        # NEW_CONNECTION_ID draws one final ACK) before going idle.
        sim.run(until=sim.now + 1.0)
        sent = client.conn.stats["packets_sent"]
        # No drain period for an idle timeout: nothing to say, nobody
        # listening — straight to CLOSED without sending a close frame.
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED, timeout=120)
        assert client.conn.close_error == (0, "idle timeout")
        assert client.conn.stats["packets_sent"] == sent

    def test_on_closed_fires_once_at_termination(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        fired = []
        client.conn.on_closed = lambda c: fired.append(c)
        client.close()
        assert fired == []  # not yet: the drain period is still running
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED, timeout=30)
        client.conn.handle_timer(sim.now + 99)  # must stay idempotent
        assert fired == [client.conn]

    def test_termination_retires_cids_and_releases_state(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"x", fin=True)
        client.close()
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED, timeout=30)
        assert client.conn.local_cid in client.conn.retired_cids
        assert not client.conn.streams_send
        assert not client.conn.streams_recv
        for path in client.conn.paths:
            assert not path.space.sent

    def test_close_frame_retransmit_is_rate_limited(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        conn = server.connections[0]
        conn.close(0, "server closed")
        # Keep poking the closing server with datagrams: §10.2.1 requires
        # backoff — close-frame retransmits per packet must *decrease*.
        driver = server._by_cid[conn.local_cid]
        replies = []
        for _ in range(8):
            before = conn.stats["packets_sent"]
            for _ in range(8):
                client.pump()
                sim.run(until=sim.now + 0.001)
                client.conn.send_stream_data(client.conn.create_stream(),
                                             b"poke")
                client.pump()
                sim.run(until=sim.now + 0.02)
            replies.append(conn.stats["packets_sent"] - before)
            if conn.state is not ConnectionState.CLOSING:
                break
        assert replies[-1] <= replies[0]


class TestServerEviction:
    def test_eviction_unbinds_cids_and_counts(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        metrics = MetricsRegistry()
        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                metrics=metrics)
        client = handshake(sim, topo)
        # Client's initial DCID, the server's own CID, and the spare CID
        # issued for migration (§9.5) at handshake completion.
        assert len(server._by_cid) == 3
        client.close()
        assert sim.run_until(lambda: server.stats["evicted"] == 1, timeout=30)
        assert server._by_cid == {}
        assert server.connections == []
        assert server.stats["cids_retired"] == 3
        assert metrics.counter("quic.server.connections_accepted").value == 1
        assert metrics.counter("quic.server.connections_evicted").value == 1
        assert metrics.counter("quic.server.cids_retired").value == 3

    def test_duplicate_initial_does_not_spawn_second_connection(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        captured = []
        original_sendto = topo.client.sendto

        def capturing_sendto(payload, *args):
            if not captured:
                captured.append((payload, args))
            return original_sendto(payload, *args)

        topo.client.sendto = capturing_sendto
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        assert server.stats["accepted"] == 1
        # Replay the captured client Initial: the DCID is still bound, so
        # the datagram must demux onto the existing connection.
        payload, args = captured[0]
        original_sendto(payload, *args)
        sim.run(until=sim.now + 1.0)
        assert server.stats["accepted"] == 1
        assert len(server.connections) == 1

    def test_client_port_unbinds_after_termination(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        ServerEndpoint(sim, topo.server, "server.0", 443)
        client = handshake(sim, topo)
        client.close()
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED, timeout=30)
        sim.run(until=sim.now + 1.0)
        # The port is free again: a fresh client may bind it.
        client2 = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                 "server.0", 443)
        client2.connect()
        assert sim.run_until(lambda: client2.conn.is_established, timeout=5)


class TestChurn:
    def test_sequential_churn_keeps_server_bounded(self):
        """200 sequential connections: the demux table and the event
        queue stay bounded by the number of *open* connections."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=50)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        for i in range(200):
            client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                    "server.0", 443)
            client.connect()
            assert sim.run_until(lambda: client.conn.is_established,
                                 timeout=10)
            client.close()
            assert sim.run_until(
                lambda: client.conn.state is ConnectionState.CLOSED,
                timeout=30)
            # <= one still-draining connection, three CIDs each (initial
            # DCID, the server CID, and the spare issued for migration).
            assert len(server._by_cid) <= 3
            assert len(server.connections) <= 1
        sim.run(until=sim.now + 2.0)
        assert server.stats["accepted"] == 200
        assert server.stats["evicted"] == 200
        assert server._by_cid == {}
        assert sim.pending() == 0

    def test_concurrent_connections_all_complete(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        closed = []

        def on_conn(conn):
            def on_data(sid, data, fin):
                if fin:
                    conn.close(0, "done")
            conn.on_stream_data = on_data

        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=on_conn)
        clients = []
        for i in range(20):
            client = ClientEndpoint(sim, topo.client, "client.0", 5000 + i,
                                    "server.0", 443)
            client.conn.on_closed = lambda c: closed.append(c)
            clients.append(client)
            sim.schedule(i * 0.002, client.connect)

        def send_when_ready():
            for client in clients:
                if (client.conn.is_established and not client.conn.closed
                        and not client.conn.streams_send):
                    sid = client.conn.create_stream()
                    client.conn.send_stream_data(sid, b"q" * 800, fin=True)
                    client.pump()

        for k in range(1, 100):
            sim.schedule(k * 0.05, send_when_ready)
        assert sim.run_until(
            lambda: server.stats["evicted"] == 20 and len(closed) == 20,
            timeout=120)
        assert server.stats["peak_connections"] <= 20
        assert server._by_cid == {}


class TestLazyTimers:
    """Idle timeout and drain end under the lazily re-armed timer fire
    when the eager reference path fires them; terminated connections and
    a thousand live ones leave the event queue as small as it can be."""

    def test_idle_timeout_fires_at_the_eager_instant(self, monkeypatch):
        def scenario():
            reset_instance_counter()
            sim = Simulator()
            topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
            ServerEndpoint(sim, topo.server, "server.0", 443)
            client = handshake(sim, topo)
            log = timer_log(client.conn)
            # Traffic at 3 s moves the idle deadline after it was armed.
            sim.run(until=3.0)
            client.conn.send_stream_data(client.conn.create_stream(), b"x")
            client.pump()
            assert sim.run_until(
                lambda: client.conn.state is ConnectionState.CLOSED,
                timeout=60)
            return log, sim.now, client.conn.close_error

        (lazy_log, lazy_end, lazy_err), (eager_log, eager_end, eager_err) = \
            both_timer_paths(scenario, monkeypatch)
        assert lazy_err == eager_err == (0, "idle timeout")
        assert lazy_end == pytest.approx(eager_end, abs=1e-9)
        assert 33.0 < lazy_end < 33.1
        assert_same_fires(lazy_log, eager_log)

    def test_drain_period_ends_at_the_eager_instant(self, monkeypatch):
        def scenario():
            reset_instance_counter()
            sim = Simulator()
            topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
            server = ServerEndpoint(sim, topo.server, "server.0", 443)
            client = handshake(sim, topo)
            sconn = server.connections[0]
            logs = timer_log(client.conn), timer_log(sconn)
            client.close(0, "done")
            deadline = client.conn.drain_deadline
            assert deadline > sim.now
            assert sim.run_until(
                lambda: server.stats["evicted"] == 1
                and client.conn.state is ConnectionState.CLOSED, timeout=30)
            closed_at = [log[-1][0] for log in logs]
            assert closed_at[0] == pytest.approx(deadline, abs=1e-9)
            sim.run(until=sim.now + 1.0)
            assert sim.pending() == 0  # eviction left no live event
            return logs

        lazy, eager = both_timer_paths(scenario, monkeypatch)
        for lazy_log, eager_log in zip(lazy, eager):
            assert_same_fires(lazy_log, eager_log)

    def test_thousand_connections_queue_one_timer_each(self):
        """1000 established connections, then one request each: the
        queue holds one timer per connection end, no cancelled garbage
        after the handshakes, and a request on an idle connection costs
        each end at most one cancel (its wake-up from the idle alarm)."""
        n = 1000
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=1000)

        def on_conn(conn):
            def on_data(stream_id, data, fin):
                if fin:
                    conn.send_stream_data(stream_id, b"r" * 200, fin=True)
            conn.on_stream_data = on_data

        ServerEndpoint(sim, topo.server, "server.0", 443,
                       on_connection=on_conn)
        cancels = []
        on_cancel = sim._on_cancel
        sim._on_cancel = lambda ev: cancels.append(ev) or on_cancel(ev)

        def queued():
            return len(sim._heap) + len(sim._wheel)  # garbage included

        answered = []
        clients = []
        for i in range(n):
            client = handshake(sim, topo, port=5000 + i)
            client.conn.on_stream_data = (
                lambda sid, data, fin: fin and answered.append(sid))
            clients.append(client)
        sim.run(until=sim.now + 1.0)
        assert cancels == []
        assert queued() == sim.pending() == 2 * n

        for client in clients:
            stream_id = client.conn.create_stream()
            client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
            client.pump()
        assert sim.run_until(lambda: len(answered) == n, timeout=30)
        sim.run(until=sim.now + 1.0)
        assert len(cancels) <= 2 * n
        assert queued() == sim.pending() == 2 * n
