"""Address resilience: path validation, migration, anti-amplification
and stateless resets (RFC 9000 §8-§10.3) under netsim adversaries."""

import pytest

from repro.netsim import FaultInjector, Simulator, nat_topology, symmetric_topology
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.quic.connection import (
    AMP_FACTOR,
    ConnectionState,
    PathState,
    QuicConfiguration,
    QuicConnection,
)
from repro.quic import frames as F
from repro.quic.reset import (
    MIN_STATELESS_RESET_SIZE,
    build_stateless_reset,
    is_stateless_reset,
    stateless_reset_token,
)
from repro.trace import ConnectionMetrics, ConnectionTracer, MetricsRegistry


def _serve(server_holder, tracers, registry):
    """on_connection hook: keep the connection, attach tracer+metrics."""
    def on_conn(conn):
        server_holder.append(conn)
        tracers.append(ConnectionTracer(conn, validate=True))
        ConnectionMetrics(conn, registry)
    return on_conn


def _nat_transfer(seed, size=120_000, rebind_offset=0.05, injector_kwargs=None):
    """Run a client->server transfer through the NAT topology with a
    rebind scheduled ``rebind_offset`` after the handshake completes (so
    it always lands mid-transfer); returns everything worth asserting on."""
    sim = Simulator()
    topo = nat_topology(sim, d_ms=10, bw_mbps=10, seed=seed)
    registry = MetricsRegistry()
    sconns, tracers = [], []
    received = bytearray()
    done = [False]

    def on_conn(conn):
        sconns.append(conn)
        tracers.append(ConnectionTracer(conn, validate=True))
        ConnectionMetrics(conn, registry)
        conn.on_stream_data = lambda sid, d, fin: (
            received.extend(d), done.__setitem__(0, fin))

    server = ServerEndpoint(sim, topo.server, "server.0", 443,
                            on_connection=on_conn)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443)
    injector = FaultInjector(sim, seed=seed, **(injector_kwargs or {}))
    if injector_kwargs:
        injector.inject_link(topo.wan)

    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10)
    injector.schedule_nat_rebind(topo.nat, at=sim.now + rebind_offset)
    sid = client.conn.create_stream()
    payload = bytes(i % 251 for i in range(size))
    client.conn.send_stream_data(sid, payload, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=300), \
        "transfer did not survive the NAT rebind"
    assert bytes(received) == payload
    assert injector.stats.nat_rebinds == 1, "rebind fired after the transfer"
    return sim, topo, server, client, sconns[0], tracers[0], registry, injector


class TestNatRebindMigration:
    def test_transfer_survives_rebind_and_revalidates(self):
        """The ISSUE acceptance scenario: a mid-transfer NAT rebind moves
        the client to a new external address; the server migrates, probes
        the new path, and the transfer completes byte-exact."""
        (sim, topo, server, client, sconn, tracer, registry,
         injector) = _nat_transfer(seed=1)
        assert topo.nat.generation == 1
        # The server followed the peer to the post-rebind address...
        assert sconn.paths[0].peer_addr == "nat.1"
        assert sconn.stats["migrations"] >= 1
        # ...and the new path earned VALIDATED through challenge/response.
        assert sconn.paths[0].state == PathState.VALIDATED
        assert not sconn.paths[0].amp_limited
        assert sconn.stats["path_challenges_sent"] >= 1
        assert client.conn.stats["path_responses_sent"] >= 1
        # Trace events (schema-validated as they were recorded).
        summary = tracer.summary()
        assert summary.get("connection_migrated", 0) >= 1
        assert summary.get("path_validation_state_changed", 0) >= 2
        transitions = [
            (e.data["old"], e.data["new"]) for e in tracer.events
            if e.name == "path_validation_state_changed"
        ]
        assert ("probing", "validated") in transitions
        # Metrics counters.
        assert registry.get("migrations").value >= 1
        assert registry.get("path_challenges_sent").value >= 1
        assert registry.get("paths_validated").value >= 1

    def test_server_push_is_amplification_limited_until_validated(self):
        """§8.1: after the rebind the server may send at most 3x the bytes
        received on the unvalidated address, so a server mid-push bumps
        into the limit and resumes only once the path validates."""
        sim = Simulator()
        topo = nat_topology(sim, d_ms=10, bw_mbps=10, seed=2)
        registry = MetricsRegistry()
        sconns = []
        received = bytearray()
        done = [False]
        size = 150_000

        def on_conn(conn):
            sconns.append(conn)
            ConnectionMetrics(conn, registry)
            sid = conn.create_stream()
            conn.send_stream_data(sid, b"s" * size, fin=True)

        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=on_conn)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        client.conn.on_stream_data = lambda sid, d, fin: (
            received.extend(d), done.__setitem__(0, fin))
        injector = FaultInjector(sim)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)
        injector.schedule_nat_rebind(topo.nat, at=sim.now + 0.05)
        # NAT keep-alive: a downstream-only client must transmit
        # *something* through the NAT or the server can never learn the
        # post-rebind address (its own packets die at the stale binding).
        ka_sid = client.conn.create_stream()

        def keepalive():
            if not done[0] and not client.conn.closed:
                client.conn.send_stream_data(ka_sid, b"k")
                client.pump()
                sim.schedule(0.05, keepalive)

        sim.schedule(0.05, keepalive)
        assert sim.run_until(lambda: done[0], timeout=300)
        assert injector.stats.nat_rebinds == 1
        assert len(received) == size
        sconn = sconns[0]
        assert sconn.stats["migrations"] >= 1
        # The push ran into the 3x budget at least once before the
        # PATH_RESPONSE lifted it.
        assert sconn.stats["amp_blocked"] >= 1
        assert registry.get("amp_blocked").value >= 1
        assert sconn.paths[0].state == PathState.VALIDATED
        assert not sconn.paths[0].amp_limited

    def test_rebind_is_deterministic_per_seed(self):
        def fingerprint(seed):
            *_, sconn, tracer, registry, injector = _nat_transfer(
                seed=seed, size=40_000)
            return (sconn.stats["migrations"],
                    sconn.stats["path_challenges_sent"],
                    tracer.summary().get("path_validation_state_changed"))

        assert fingerprint(3) == fingerprint(3)


class TestProbeChaos:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_duplicate_and_reorder_on_probes_converges(self, seed):
        """Satellite: duplicated and reordered ack-eliciting probe packets
        (PATH_CHALLENGE / PATH_RESPONSE among them) must not wedge the
        validation machine — it converges to VALIDATED and the transfer
        completes byte-exact."""
        *_, sconn, tracer, registry, injector = _nat_transfer(
            seed=seed, size=60_000,
            injector_kwargs=dict(duplicate_rate=0.2, reorder_rate=0.2,
                                 reorder_delay=0.02))
        assert injector.stats.duplicated > 0
        assert injector.stats.reordered > 0
        assert sconn.paths[0].state == PathState.VALIDATED
        # A duplicated PATH_RESPONSE to an already-consumed challenge is
        # benign: the state machine stays VALIDATED, never regresses.
        transitions = [
            (e.data["old"], e.data["new"]) for e in tracer.events
            if e.name == "path_validation_state_changed"
        ]
        assert transitions.count(("validated", "probing")) == 0


class TestOffPathRejection:
    def test_spoofed_datagram_does_not_steal_connection(self):
        """§9.3.2: an off-path attacker writing a new source address on a
        forged datagram must not migrate the connection or corrupt any
        per-path state."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, seed=1)
        registry = MetricsRegistry()
        sconns, tracers = [], []
        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=_serve(sconns, tracers, registry))
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        sconn = sconns[0]
        before_state = (sconn.paths[0].peer_addr, sconn.paths[0].state)
        # Forge a short-header packet bearing the server's CID, injected
        # from the client's second interface with a foreign address.
        forged = bytes([0x40]) + sconn.local_cid \
            + (123).to_bytes(4, "big") + b"\x00" * 40
        injector = FaultInjector(sim)
        injector.schedule_address_spoof(
            topo.client, sim.now + 0.05, forged,
            "client.1", 6666, "server.0", 443)
        sim.run(until=sim.now + 0.5)
        assert injector.stats.spoofed == 1
        assert sconn.stats["off_path_rejected"] == 1
        assert registry.get("off_path_rejected").value == 1
        # Nothing moved: address and validation state are exactly as
        # before the spoof, and no migration was recorded.
        assert (sconn.paths[0].peer_addr, sconn.paths[0].state) == before_state
        assert sconn.stats["migrations"] == 0
        assert sconn.state is ConnectionState.ACTIVE


class TestActiveClientMigration:
    def test_migrate_rotates_cid_and_revalidates(self):
        """§9.5: an actively migrating client moves to a fresh local
        address, rotates to a server-issued CID so the paths cannot be
        linked, and the server follows after validation."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, seed=1)
        registry = MetricsRegistry()
        sconns, tracers = [], []
        received = bytearray()
        done = [False]

        def on_conn(conn):
            sconns.append(conn)
            tracers.append(ConnectionTracer(conn, validate=True))
            ConnectionMetrics(conn, registry)
            conn.on_stream_data = lambda sid, d, fin: (
                received.extend(d), done.__setitem__(0, fin))

        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=on_conn)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"a" * 30_000)
        client.pump()
        # Let the server's NEW_CONNECTION_ID arrive before migrating.
        assert sim.run_until(
            lambda: client.conn.peer_cids_available, timeout=5)
        old_cid = client.conn.peer_cid
        client.migrate("client.1", 5001)
        assert client.conn.stats["migrations"] == 1
        assert client.conn.stats["cids_rotated"] == 1
        assert client.conn.peer_cid != old_cid
        assert client.conn.peer_cid in sconns[0].issued_cids
        client.conn.send_stream_data(sid, b"b" * 30_000, fin=True)
        client.pump()
        assert sim.run_until(lambda: done[0], timeout=60)
        assert len(received) == 60_000
        assert sconns[0].paths[0].peer_addr == "client.1"
        assert client.conn.paths[0].state == PathState.VALIDATED


class TestStatelessReset:
    def test_reset_from_rebooted_server_moves_client_to_draining(self):
        """§10.3: a rebooted server holds no connection state but the
        same static reset key; its stateless reset must tear the stale
        client down into DRAINING, not leave it retrying forever."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, seed=1)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        tracer = ConnectionTracer(client.conn, validate=True)
        registry = MetricsRegistry()
        ConnectionMetrics(client.conn, registry)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)
        # The handshake advertised a reset token for the server's CID.
        assert client.conn._peer_reset_tokens
        # Let the final handshake flights settle so no Initial-epoch
        # packet is in flight across the reboot.
        sim.run(until=sim.now + 0.5)
        # Reboot: all connection state evaporates, the listener returns
        # on the same address/port and derives the same reset key.
        server.shutdown()
        server2 = ServerEndpoint(sim, topo.server, "server.0", 443)
        assert server2.reset_key == server.reset_key
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"into the void" * 100, fin=True)
        client.pump()
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.DRAINING,
            timeout=30)
        assert server2.stats["stateless_resets_sent"] >= 1
        assert client.conn.stats["stateless_resets_received"] == 1
        assert registry.get("stateless_resets_received").value == 1
        assert tracer.summary().get("stateless_reset") == 1
        # DRAINING runs out into CLOSED on its own.
        assert sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED, timeout=60)

    def test_reset_datagram_shape(self):
        """§10.3: a reset is >= 21 bytes, strictly smaller than the
        datagram that triggered it, looks like a short-header packet and
        carries the token in its final 16 bytes."""
        import random

        key, cid = b"k" * 32, b"\x07" * 8
        token = stateless_reset_token(key, cid)
        assert len(token) == 16
        assert token == stateless_reset_token(key, cid)  # deterministic
        assert token != stateless_reset_token(key, b"\x08" * 8)
        reset = build_stateless_reset(token, random.Random(1), 1200)
        assert reset is not None
        assert MIN_STATELESS_RESET_SIZE <= len(reset) < 1200
        assert not reset[0] & 0x80 and reset[0] & 0x40
        assert reset[-16:] == token
        assert is_stateless_reset(reset, {token})
        assert not is_stateless_reset(reset, {b"x" * 16})
        # A too-small trigger cannot be answered without a reset loop.
        assert build_stateless_reset(
            token, random.Random(1), MIN_STATELESS_RESET_SIZE) is None
        # Long-header datagrams are never mistaken for resets.
        assert not is_stateless_reset(b"\xc0" + reset[1:], {token})


class TestUndersizedInitials:
    def test_server_endpoint_drops_small_initials(self):
        """§14.1: a sub-1200-byte client Initial earns neither server
        state nor any reply bytes (no amplification for spoofers)."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
        server = ServerEndpoint(sim, topo.server, "server.0", 443)
        # A plausible long-header Initial, far below the padding target.
        runt = bytes([0xC0, 0, 0, 0, 1, 8]) + b"\x01" * 8 + b"\x00" * 60
        topo.client.sendto(runt, "client.0", 7777, "server.0", 443)
        sim.run(until=sim.now + 0.5)
        assert server.stats["undersized_initials"] == 1
        assert server.stats["accepted"] == 0
        assert server.connections == []
        # A real handshake still works afterwards.
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=5)

    def test_connection_counts_undersized_initial(self):
        """The connection-level gate (for datagrams that reach an already
        accepted connection) counts and drops before key derivation."""
        from repro.quic.packet import PacketType, encode_long_header

        conn = QuicConnection(QuicConfiguration(is_client=False))
        header = encode_long_header(
            PacketType.INITIAL, b"\x01" * 8, b"\x02" * 8,
            packet_number=0, payload_length=64)
        conn.receive_datagram(header + b"\x00" * 64, now=0.0)
        assert conn.stats["undersized_initials_dropped"] == 1
        assert conn.stats["packets_received"] == 0


class TestProbeRetransmission:
    def test_path_response_never_retransmitted_on_loss(self):
        """Satellite pin (was `ignore` by accident, now by design):
        §13.3 — a lost PATH_RESPONSE is NOT retransmitted; the peer's
        timer-driven PATH_CHALLENGE repeat elicits a fresh response."""
        conn = QuicConnection(QuicConfiguration(is_client=True))
        frame = F.PathResponseFrame(data=b"\x11" * 8)
        conn.protoops.run(conn, "notify_frame", F.PATH_RESPONSE,
                          frame, False, None)
        assert conn._control_frames == []
        assert all(not p.probe_frames for p in conn.paths)

    def test_path_challenge_retransmit_is_timer_driven(self):
        """A lost PATH_CHALLENGE is likewise not frame-requeued — the
        probe timer re-sends it with PTO backoff on its own path."""
        conn = QuicConnection(QuicConfiguration(is_client=True))
        conn.start_path_validation(0)
        challenge = conn.paths[0].probe_frames[0]
        conn.paths[0].probe_frames.clear()  # "sent"
        conn.protoops.run(conn, "notify_frame", F.PATH_CHALLENGE,
                          challenge, False, None)
        assert conn._control_frames == []
        assert conn.paths[0].probe_frames == []
        # The timer path: same token, counted, backed-off deadline.
        deadline = conn.paths[0].probe_deadline
        conn.now = deadline
        conn.handle_timer(deadline)
        assert len(conn.paths[0].probe_frames) == 1
        assert conn.paths[0].probe_frames[0].data == challenge.data
        assert conn.paths[0].probe_deadline > deadline
        assert conn.stats["path_challenges_sent"] == 2

    def test_probe_gives_up_after_max_probes(self):
        from repro.quic.connection import MAX_PATH_PROBES

        conn = QuicConnection(QuicConfiguration(is_client=True))
        conn.start_path_validation(0)
        for _ in range(MAX_PATH_PROBES):
            deadline = conn.paths[0].probe_deadline
            assert deadline is not None
            conn.now = deadline
            conn.handle_timer(deadline)
        path = conn.paths[0]
        assert path.state == PathState.FAILED
        assert path.probe_deadline is None
        assert path.challenge_data is None
        assert not any(f.type == F.PATH_CHALLENGE for f in path.probe_frames)


class TestAmpBudget:
    def test_budget_arithmetic(self):
        conn = QuicConnection(QuicConfiguration(is_client=False))
        tracer = ConnectionTracer(conn)
        path = conn.paths[conn._op_create_path("server.0", "client.1")]
        assert path.amp_limited and path.state == PathState.UNVALIDATED
        path.amp_limited = False
        assert path.amp_budget() > 1 << 60  # unlimited once lifted
        path.amp_limited = True
        path.amp_received = 1_000
        assert path.amp_budget() == AMP_FACTOR * 1_000
        path.amp_sent = 2_900
        assert path.amp_budget() == 100
        # Validation lifts the limit, and the transition is published.
        conn.start_path_validation(path.index)
        conn._process_path_response(
            F.PathResponseFrame(data=path.challenge_data), {})
        assert path.state == PathState.VALIDATED
        assert not path.amp_limited
        assert path.amp_budget() > 1 << 60
        assert [(e.data["old"], e.data["new"]) for e in tracer.events
                if e.name == "path_validation_state_changed"] == [
            ("unvalidated", "probing"), ("probing", "validated")]

    def test_server_initial_path_is_limited_until_handshake(self):
        server = QuicConnection(QuicConfiguration(is_client=False))
        assert server.paths[0].amp_limited
        client = QuicConnection(QuicConfiguration(is_client=True))
        assert not client.paths[0].amp_limited
