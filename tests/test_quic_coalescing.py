"""Datagram coalescing (RFC 9000 §12.2) and the batched zero-copy datapath.

Covers the send-side packer (`_coalesce_datagrams`), the multi-packet
receive loop (runt tails, mixed long/short trains, stateless-reset
reachability), the scatter-gather sealers (bit-identical to the
concatenating `seal_packet`), and per-packet plugin protoop semantics
under GSO/GRO (one invocation per packet, same fuel).
"""

from repro.core.plugin import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.plugins import build_monitoring_plugin
from repro.plugins.monitoring import (
    OFF_PACKETS_RECEIVED,
    OFF_PACKETS_SENT,
    PI_AREA_ID,
    PI_SIZE,
)
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import ConnectionState, QuicConnection
from repro.quic.crypto import AeadContext
from repro.quic.packet import FORM_LONG, seal_packet, seal_packet_into
from repro.quic.reset import stateless_reset_token
from repro.vm.interpreter import HEAP_BASE


def exchange(a: QuicConnection, b: QuicConnection, rounds: int = 10) -> None:
    """Shuttle datagrams between two in-memory connections until quiet."""
    for _ in range(rounds):
        moved = False
        for src, dst in ((a, b), (b, a)):
            for payload, _path in src.datagrams_to_send(0.0):
                moved = True
                dst.receive_datagram(payload, now=0.0)
        if not moved:
            return


def established_pair() -> tuple:
    client = QuicConnection(QuicConfiguration(is_client=True))
    server = QuicConnection(QuicConfiguration(is_client=False))
    exchange(client, server)
    assert client.is_established and server.is_established
    return client, server


class TestCoalescePacker:
    """Unit tests for the send-side datagram packer."""

    def _packer(self):
        return QuicConnection(QuicConfiguration(is_client=True))

    def test_two_long_header_packets_share_a_datagram(self):
        conn = self._packer()
        a = bytes([0xC0]) + b"a" * 99
        b = bytes([0xC1]) + b"b" * 49
        out = conn._coalesce_datagrams([(a, 0), (b, 0)])
        assert out == [(a + b, 0)]

    def test_short_header_rides_last(self):
        conn = self._packer()
        long_pkt = bytes([0xC0]) + b"L" * 99
        short_pkt = bytes([0x40]) + b"S" * 29
        out = conn._coalesce_datagrams([(long_pkt, 0), (short_pkt, 0)])
        assert out == [(long_pkt + short_pkt, 0)]

    def test_nothing_follows_a_short_header(self):
        # A short-header packet extends to the end of the datagram, so it
        # terminates the train: the next packet starts a new datagram.
        conn = self._packer()
        short_pkt = bytes([0x40]) + b"S" * 29
        long_pkt = bytes([0xC0]) + b"L" * 99
        out = conn._coalesce_datagrams([(short_pkt, 0), (long_pkt, 0)])
        assert out == [(short_pkt, 0), (long_pkt, 0)]

    def test_mtu_bounds_the_train(self):
        conn = self._packer()
        mtu = conn.configuration.max_udp_payload_size
        a = bytes([0xC0]) + b"a" * (mtu - 101)  # mtu - 100 total
        b = bytes([0xC1]) + b"b" * 98           # 99: fits (mtu - 1)
        c = bytes([0xC2]) + b"c" * 9            # 10: would overflow
        out = conn._coalesce_datagrams([(a, 0), (b, 0), (c, 0)])
        assert out == [(a + b, 0), (c, 0)]
        assert all(len(payload) <= mtu for payload, _ in out)

    def test_path_change_flushes_the_train(self):
        conn = self._packer()
        a = bytes([0xC0]) + b"a" * 49
        b = bytes([0xC1]) + b"b" * 49
        out = conn._coalesce_datagrams([(a, 0), (b, 1)])
        assert out == [(a, 0), (b, 1)]


class TestCoalescedReceive:
    """The multi-packet receive loop against real handshake flights."""

    def test_handshake_flight_coalesces_long_and_short(self):
        """The client's second flight travels as ONE datagram carrying an
        Initial (long header) plus a 1-RTT packet (short header, last)."""
        client = QuicConnection(QuicConfiguration(is_client=True))
        server = QuicConnection(QuicConfiguration(is_client=False))
        # Flight 1: client Initial; flight 2: server Initial reply.
        (first, _), = client.datagrams_to_send(0.0)
        server.receive_datagram(first, now=0.0)
        for payload, _ in server.datagrams_to_send(0.0):
            client.receive_datagram(payload, now=0.0)
        # Flight 3: the coalesced train.
        flight = client.datagrams_to_send(0.0)
        assert len(flight) == 1
        payload = flight[0][0]
        assert payload[0] & FORM_LONG
        before = server.stats["packets_received"]
        server.receive_datagram(payload, now=0.0)
        assert server.stats["packets_received"] == before + 2
        exchange(client, server)
        assert client.is_established and server.is_established

    def test_runt_tail_is_dropped_silently(self):
        """§12.2: once one packet authenticated, an undecodable tail is
        ignored — the datagram must not be treated as an error."""
        client = QuicConnection(QuicConfiguration(is_client=True))
        server = QuicConnection(QuicConfiguration(is_client=False))
        (initial, _), = client.datagrams_to_send(0.0)
        server.receive_datagram(initial + b"\x01\x02\x03", now=0.0)
        assert server.state is ConnectionState.ACTIVE
        assert server.stats["packets_received"] == 1

    def test_undecryptable_short_tail_is_dropped_silently(self):
        """A well-formed but unauthenticatable short-header tail behind a
        good Initial is dropped, not fatal (and is not a reset)."""
        client = QuicConnection(QuicConfiguration(is_client=True))
        server = QuicConnection(QuicConfiguration(is_client=False))
        (initial, _), = client.datagrams_to_send(0.0)
        tail = bytes([0x40]) + b"\x07" * 40  # short header, garbage AEAD
        server.receive_datagram(initial + tail, now=0.0)
        assert server.state is ConnectionState.ACTIVE
        assert server.stats["packets_received"] == 1
        assert server.stats["stateless_resets_received"] == 0

    def test_stateless_reset_detection_still_fires(self):
        """A datagram with NO authenticatable packet must still surface
        as CryptoError so the §10.3 token check runs — the multi-packet
        loop cannot swallow it."""
        from repro.quic.reset import build_stateless_reset
        import random

        client, _server = established_pair()
        token = stateless_reset_token(b"k" * 32, b"\x07" * 8)
        client._peer_reset_tokens.add(token)
        reset = build_stateless_reset(token, random.Random(3), 1200)
        client.receive_datagram(reset, now=0.0)
        assert client.stats["stateless_resets_received"] == 1
        assert client.state is ConnectionState.DRAINING

    def test_authenticated_datagram_is_never_a_reset(self):
        """A reset-token-shaped tail behind an authenticated packet does
        not tear the connection down."""
        client = QuicConnection(QuicConfiguration(is_client=True))
        server = QuicConnection(QuicConfiguration(is_client=False))
        token = stateless_reset_token(b"k" * 32, b"\x07" * 8)
        client._peer_reset_tokens.add(token)
        (initial, _), = client.datagrams_to_send(0.0)
        server.receive_datagram(initial, now=0.0)
        (reply, _), = server.datagrams_to_send(0.0)
        tail = bytes([0x41]) + b"\x00" * 23 + token  # ends in the token
        client.receive_datagram(reply + tail, now=0.0)
        assert client.stats["stateless_resets_received"] == 0
        assert client.state is ConnectionState.ACTIVE


class TestScatterGatherSeal:
    """The pooled-buffer sealers are bit-identical to the legacy ones."""

    def test_aead_seal_into_matches_seal(self):
        aead = AeadContext(b"k" * 16)
        header = b"\x40" + b"\x07" * 8
        payload = b"\xa5" * 1200
        for pn in (0, 1, 2 ** 30):
            out = bytearray(b"prefix")
            aead.seal_into(out, pn, header, payload)
            assert bytes(out) == b"prefix" + header + aead.seal(
                pn, header, payload)

    def test_seal_into_accepts_memoryviews(self):
        aead = AeadContext(b"k" * 16)
        header = bytearray(b"\x40" + b"\x07" * 8)
        payload = memoryview(bytearray(b"\xa5" * 64))
        out = bytearray()
        aead.seal_into(out, 5, memoryview(header), payload)
        assert bytes(out) == bytes(header) + aead.seal(
            5, bytes(header), bytes(payload))

    def test_seal_packet_into_matches_seal_packet(self):
        aead = AeadContext(b"s" * 16)
        header = b"\xc0" + b"\x01" * 10
        payload = b"frame-bytes" * 20
        out = bytearray()
        seal_packet_into(out, header, payload, aead, 42)
        assert bytes(out) == seal_packet(header, payload, aead, 42)


def _lossy_monitored_transfer(size=60_000):
    """One bulk transfer over a seeded lossy link with the monitoring
    plugin on both ends; returns the client connection and its plugin
    instance."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=20, loss_pct=1.0, seed=5)
    received = bytearray()
    done = [False]

    def on_conn(conn):
        PluginInstance(build_monitoring_plugin(), conn).attach()
        conn.on_stream_data = lambda sid, d, fin: (
            received.extend(d), done.__setitem__(0, fin))

    ServerEndpoint(sim, topo.server, "server.0", 443, on_connection=on_conn)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443)
    instance = PluginInstance(build_monitoring_plugin(), client.conn)
    instance.attach()
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10)
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"d" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=600)
    assert len(received) == size
    return client.conn, instance


def _pi_counter(instance: PluginInstance, offset: int) -> int:
    """Read one 64-bit counter out of the monitoring plugin's PI area."""
    addr = instance.runtime.opaque_data(PI_AREA_ID, PI_SIZE) - HEAP_BASE
    data = instance.runtime.memory.data
    return int.from_bytes(data[addr + offset:addr + offset + 8], "little")


class TestBatchedDifferential:
    """Batching datagrams must not batch what a plugin sees."""

    def test_plugin_sees_every_packet_exactly_once(self):
        """GRO batch receive and GSO bursts must not change protoop
        cardinality: the monitoring plugin's per-packet counters equal
        the connection's own packet stats, and every invocation of the
        straight-line counter burns the same fuel."""
        conn, instance = _lossy_monitored_transfer()
        stats = conn.stats
        sent = _pi_counter(instance, OFF_PACKETS_SENT)
        recv = _pi_counter(instance, OFF_PACKETS_RECEIVED)
        assert sent == stats["packets_sent"]
        assert recv == stats["packets_received"]
        assert instance.vms["count_received"].instructions_executed % recv == 0


class TestGsoBursts:
    """End-to-end: bulk transfers actually ride coalesced sim events."""

    def test_bursts_coalesce_simulator_events(self):
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20)
        received = bytearray()
        done = [False]

        def on_conn(conn):
            conn.on_stream_data = lambda sid, d, fin: (
                received.extend(d), done.__setitem__(0, fin))

        ServerEndpoint(sim, topo.server, "server.0", 443,
                       on_connection=on_conn)
        client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                                "server.0", 443)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)
        sid = client.conn.create_stream()
        client.conn.send_stream_data(sid, b"b" * 120_000, fin=True)
        client.pump()
        assert sim.run_until(lambda: done[0], timeout=600)
        assert len(received) == 120_000
        assert sim.events_coalesced > 50
