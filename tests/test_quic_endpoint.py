"""Endpoint adapter tests: demultiplexing, timers, lifecycle."""

import pytest

from repro.netsim import Simulator, symmetric_topology
from repro.netsim.link import SeededLossGen
from repro.quic import ClientEndpoint, ServerEndpoint, endpoint
from repro.quic.connection import reset_instance_counter
from repro.quic.endpoint import ServerEndpoint as SE
from repro.quic.endpoint import _ConnectionDriver


def test_short_header_for_unknown_connection_dropped():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    # A short-header packet (no FORM_LONG bit) with a random DCID.
    bogus = bytes([0x40]) + b"\xaa" * 8 + b"\x00" * 20
    topo.client.sendto(bogus, "client.0", 5000, "server.0", 443)
    sim.run()
    assert server.connections == []


def test_empty_datagram_ignored():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    topo.client.sendto(b"", "client.0", 5000, "server.0", 443)
    sim.run()
    assert server.connections == []


def test_garbage_initial_does_not_crash_server():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    garbage = bytes([0xC0]) + b"\x00\x00\x00\x0e" + bytes([8]) + b"\x01" * 8 \
        + bytes([8]) + b"\x02" * 8 + b"\x00" + b"\x00" * 40
    topo.client.sendto(garbage, "client.0", 5000, "server.0", 443)
    sim.run()
    # A connection object may be created, but the server keeps serving.
    client = ClientEndpoint(sim, topo.client, "client.0", 5001, "server.0", 443)
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)


def test_destination_cid_extraction():
    long_pkt = bytes([0xC0]) + b"\x00\x00\x00\x0e" + bytes([4]) + b"ABCD" + bytes([0])
    assert SE._destination_cid(long_pkt) == b"ABCD"
    short_pkt = bytes([0x40]) + b"12345678" + b"rest"
    assert SE._destination_cid(short_pkt) == b"12345678"
    assert SE._destination_cid(b"") is None
    assert SE._destination_cid(bytes([0xC0, 0x00])) is None


def test_client_timer_drives_retransmission():
    """Drop the first client Initial: the PTO timer must retry it."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    drop_next = {"on": True}
    original_sendto = topo.client.sendto

    def flaky_sendto(payload, *args):
        if drop_next["on"]:
            drop_next["on"] = False
            return False
        return original_sendto(payload, *args)

    topo.client.sendto = flaky_sendto
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10)


def test_close_stops_timers():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    client.close()
    sim.run(until=sim.now + 0.2)
    before = sim.now
    sim.run(until=before + 120)
    # No runaway timer events kept the simulation alive beyond the
    # server's idle timeout handling.
    assert client.conn.closed


def test_two_clients_same_port_different_hosts_addresses():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    c1 = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    c2 = ClientEndpoint(sim, topo.client, "client.1", 5001, "server.0", 443)
    c1.connect()
    c2.connect()
    assert sim.run_until(
        lambda: c1.conn.is_established and c2.conn.is_established, timeout=5)
    assert len(server.connections) == 2


# ---------------------------------------------------------------------------
# Lazy timer re-arm: a deadline that only moved later keeps the queued
# event; the event fires early, re-arms, and nothing else happens.


class EagerDriver(_ConnectionDriver):
    """Reference timer path: cancel and re-schedule on every pump, so the
    queued event is always due exactly at the connection's deadline."""

    def _rearm_timer(self) -> None:
        self.stop()
        deadline = self.conn.next_timer()
        if deadline is not None:
            self._arm(max(deadline, self.sim.now + 1e-4))


def timer_log(conn) -> list:
    """Record every ``handle_timer`` call on *conn* as (time, what it
    did): the instants at which a timer really fired."""
    log = []
    handle_timer = conn.handle_timer

    def logged(now):
        before = (conn.stats["pto_fired"], conn.stats["path_challenges_sent"],
                  conn.state)
        handle_timer(now)
        after = (conn.stats["pto_fired"], conn.stats["path_challenges_sent"],
                 conn.state)
        log.append((now, before, after))

    conn.handle_timer = logged
    return log


def both_timer_paths(scenario, monkeypatch) -> tuple:
    """Run *scenario* under the lazy driver and under the eager
    reference; returns both results."""
    lazy = scenario()
    monkeypatch.setattr(endpoint, "_ConnectionDriver", EagerDriver)
    return lazy, scenario()


def assert_same_fires(lazy_log: list, eager_log: list) -> None:
    assert [entry[1:] for entry in lazy_log] == [e[1:] for e in eager_log]
    assert [entry[0] for entry in lazy_log] == pytest.approx(
        [entry[0] for entry in eager_log], abs=1e-9)


def _established():
    reset_instance_counter()
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    return sim, topo, client, server


def test_probe_timeouts_fire_when_the_eager_path_fires_them(monkeypatch):
    """PATH_CHALLENGE retransmissions (PTO backoff) up to FAILED, with
    the return direction dead so no PATH_RESPONSE ever arrives."""

    def scenario():
        sim, topo, client, _server = _established()
        sim.run(until=sim.now + 0.5)
        log = timer_log(client.conn)
        for link in topo.path_links:
            link.backward.loss = SeededLossGen(1.0)
        client.conn.start_path_validation(0)
        client.pump()
        assert sim.run_until(
            lambda: client.conn.paths[0].state == "failed", timeout=60)
        return log, dict(client.conn.stats)

    (lazy_log, lazy_stats), (eager_log, eager_stats) = both_timer_paths(
        scenario, monkeypatch)
    assert lazy_stats == eager_stats
    assert lazy_stats["path_challenges_sent"] >= 3
    assert_same_fires(lazy_log, eager_log)


def test_early_fire_is_invisible():
    """The queued event is a request's PTO; by the time it fires the
    ACK has come back and the deadline is the idle timeout.  The fire
    re-arms and does nothing a plugin or the peer could see."""
    sim, _topo, client, server = _established()
    sim.run(until=sim.now + 0.1)  # let the post-handshake exchange settle
    client.conn.send_stream_data(client.conn.create_stream(), b"ping")
    client.pump()
    assert sim.run_until(lambda: not client.conn.paths[0].space.sent, timeout=1)
    driver = client.driver
    stale = driver._timer_event
    # Kept although the deadline has moved out to the idle timeout.
    assert sim.now < stale.time < driver._deadline
    sconn = server.connections[0]
    before = (dict(client.conn.stats), client.conn.protoops.runs,
              dict(sconn.stats), sconn.protoops.runs)
    calls = []
    client.conn.handle_timer = lambda now: calls.append(now)
    assert sim.run_until(lambda: driver._timer_event is not stale, timeout=5)
    assert sim.now == stale.time
    assert calls == []
    assert (dict(client.conn.stats), client.conn.protoops.runs,
            dict(sconn.stats), sconn.protoops.runs) == before
    assert driver._timer_event.time == driver._deadline
    assert not driver._timer_event.cancelled


def test_a_later_deadline_schedules_nothing_and_an_earlier_one_cancels():
    sim, _topo, client, _server = _established()
    sim.run(until=sim.now + 1.0)  # quiet: the idle timeout is what is armed
    driver = client.driver
    idle_event = driver._timer_event
    scheduled = []
    schedule_at = sim.schedule_at

    def counted_schedule_at(time, callback):
        # The server's own timer (its ACK of the ping waits up to
        # max_ack_delay) is not the client's business.
        if callback == driver._on_timer:
            scheduled.append(time)
        return schedule_at(time, callback)

    sim.schedule_at = counted_schedule_at
    # Activity: the deadline drops from idle (30 s) to a PTO.
    client.conn.send_stream_data(client.conn.create_stream(), b"ping")
    client.pump()
    assert idle_event.cancelled and len(scheduled) == 1
    pto_event = driver._timer_event
    # The ACK moves the deadline back out to idle: the PTO event stays.
    assert sim.run_until(lambda: not client.conn.paths[0].space.sent, timeout=1)
    assert driver._timer_event is pto_event and not pto_event.cancelled
    assert driver._deadline > pto_event.time
    assert len(scheduled) == 1


def test_stop_leaves_no_live_event():
    sim, _topo, client, server = _established()
    sim.run(until=sim.now + 1.0)  # past an early fire: re-armed events too
    assert sim.pending() == 2
    client.driver.stop()
    for driver in set(server._by_cid.values()):
        driver.stop()
    assert sim.pending() == 0
