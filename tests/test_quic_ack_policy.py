"""When an ACK leaves (RFC 9000 §13.2).

An ACK frame rides on any packet that leaves anyway.  An ACK-only packet
leaves only once the ACK is due: at once for an Initial, before the
handshake completes, for a packet out of order (a gap, or below the
largest received) and for the second ack-eliciting packet owed;
``max_ack_delay`` after receipt otherwise.  ``is_ack_needed`` is the
decision, and ``next_timer`` wakes the connection when an owed ACK falls
due.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protoop import Anchor
from repro.netsim import Simulator, symmetric_topology
from repro.quic import (
    ClientEndpoint,
    QuicConfiguration,
    ServerEndpoint,
    TransportParameters,
)
from repro.quic.connection import (
    ConnectionState,
    QuicConnection,
    reset_instance_counter,
)
from repro.quic.packet import FORM_LONG, Epoch

from tests.test_quic_coalescing import exchange

MAX_ACK_DELAY = TransportParameters().max_ack_delay


def send(conn, now: float) -> list:
    """The datagrams *conn* sends at *now*."""
    return [payload for payload, _path in conn.datagrams_to_send(now)]


def deliver(conn, datagrams: list, now: float) -> None:
    for payload in datagrams:
        conn.receive_datagram(payload, now)


def sent_log(conn) -> list:
    """Every packet *conn* sends from now on, as its ``SentPacket``."""
    log: list = []
    conn.protoops.attach("packet_sent_event", Anchor.POST,
                         lambda c, args, result: log.append(args[0]))
    return log


def is_ack_only(packet) -> bool:
    return packet.largest_ack_reported >= 0 and not packet.ack_eliciting


def settled_pair(**client_params) -> tuple:
    """An established pair at t = 1 s that owes nothing either way."""
    reset_instance_counter()
    client = QuicConnection(QuicConfiguration(
        is_client=True,
        transport_parameters=TransportParameters(**client_params)))
    server = QuicConnection(QuicConfiguration(is_client=False))
    exchange(client, server)
    deliver(server, send(client, 1.0), 1.0)
    assert not client.paths[0].space.ack_needed
    assert not server.paths[0].space.ack_needed
    return client, server


def server_packets(server, now: float, count: int) -> list:
    """*count* one-packet stream writes from the server at *now*."""
    out = []
    for _ in range(count):
        server.send_stream_data(server.create_stream(), b"r" * 200, fin=True)
        out += send(server, now)
    assert len(out) == count
    return out


class TestWhenTheAckIsDue:
    def test_in_order_packet_is_acked_max_ack_delay_after_receipt(self):
        client, server = settled_pair()
        log = sent_log(client)
        t = 2.0
        deliver(client, server_packets(server, t, 1), t)
        assert client.paths[0].space.ack_needed
        assert send(client, t) == []
        assert client.next_timer() == pytest.approx(t + MAX_ACK_DELAY)
        assert send(client, t + MAX_ACK_DELAY - 1e-4) == []
        assert len(send(client, t + MAX_ACK_DELAY)) == 1
        assert [is_ack_only(p) for p in log] == [True]

    def test_second_packet_is_acked_at_once(self):
        client, server = settled_pair()
        log = sent_log(client)
        first, second = server_packets(server, 2.0, 2)
        deliver(client, [first], 2.0)
        assert send(client, 2.0) == []
        deliver(client, [second], 2.01)
        assert len(send(client, 2.01)) == 1
        assert [is_ack_only(p) for p in log] == [True]

    def test_a_gap_is_acked_at_once(self):
        client, server = settled_pair()
        log = sent_log(client)
        _lost, second = server_packets(server, 2.0, 2)
        deliver(client, [second], 2.0)
        assert len(send(client, 2.0)) == 1
        assert [is_ack_only(p) for p in log] == [True]

    def test_a_reordered_packet_is_acked_at_once(self):
        client, server = settled_pair()
        log = sent_log(client)
        first, second = server_packets(server, 2.0, 2)
        deliver(client, [second], 2.0)
        send(client, 2.0)  # the gap's ACK
        deliver(client, [first], 2.01)  # below the largest received
        assert len(send(client, 2.01)) == 1
        assert [is_ack_only(p) for p in log] == [True, True]

    def test_an_initial_is_acked_at_once(self):
        reset_instance_counter()
        client = QuicConnection(QuicConfiguration(is_client=True))
        server = QuicConnection(QuicConfiguration(is_client=False))
        deliver(server, send(client, 0.0), 0.0)
        deliver(client, send(server, 0.0), 0.0)
        # The server's Initial completes the handshake; the 1-RTT packet
        # behind it is in order, so only the Initial ACK leaves now.
        out = send(client, 0.0)
        assert len(out) == 1 and out[0][0] & FORM_LONG
        assert not client.initial_space.ack_needed
        assert client.paths[0].space.ack_needed

    def test_before_the_handshake_completes_a_packet_is_acked_at_once(self):
        client, server = settled_pair()
        # A 1-RTT packet can be opened only once the handshake has
        # completed in this model, so the state is set by hand.
        client.handshake_complete = False
        log = sent_log(client)
        deliver(client, server_packets(server, 2.0, 1), 2.0)
        assert len(send(client, 2.0)) == 1
        assert [is_ack_only(p) for p in log] == [True]

    def test_an_owed_ack_rides_on_the_next_stream_packet(self):
        client, server = settled_pair()
        log = sent_log(client)
        deliver(client, server_packets(server, 2.0, 1), 2.0)
        client.send_stream_data(client.create_stream(), b"q" * 64, fin=True)
        assert len(send(client, 2.01)) == 1
        (packet,) = log
        assert packet.ack_eliciting and packet.largest_ack_reported >= 0
        assert not client.paths[0].space.ack_needed
        assert send(client, 2.0 + MAX_ACK_DELAY) == []

    def test_the_tuned_max_ack_delay_is_the_one_used(self):
        client, server = settled_pair(max_ack_delay=0.06)
        # The peer learns it, and its PTO waits it out.
        assert server.paths[0].rtt.max_ack_delay == pytest.approx(0.06)
        deliver(client, server_packets(server, 2.0, 1), 2.0)
        assert client.next_timer() == pytest.approx(2.06)
        assert send(client, 2.059) == []
        assert len(send(client, 2.06)) == 1


def test_a_request_costs_two_packets():
    """64 B requests and 512 B responses on one connection: after
    warm-up, the client's ACK of each response rides on its next
    request, and the server's ACK of each request on its response."""
    reset_instance_counter()
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=1, bw_mbps=1000)
    conns = []

    def on_connection(conn):
        conns.append(conn)

        def on_request(stream_id, data, fin):
            if fin:
                conn.send_stream_data(stream_id, b"r" * 512, fin=True)
        conn.on_stream_data = on_request

    ServerEndpoint(sim, topo.server, "server.0", 443,
                   on_connection=on_connection)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443,
                            configuration=QuicConfiguration(is_client=True,
                                                            seed=1))
    conns.append(client.conn)
    answered = []
    client.conn.on_stream_data = (
        lambda stream_id, data, fin: fin and answered.append(stream_id))
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=10)

    def requests(count: int) -> int:
        before = sum(c.stats["packets_sent"] for c in conns)
        for _ in range(count):
            stream_id = client.conn.create_stream()
            client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
            client.pump()
            n = len(answered)
            assert sim.run_until(lambda: len(answered) > n, timeout=10)
        return sum(c.stats["packets_sent"] for c in conns) - before

    requests(50)
    assert requests(600) == 2 * 600


# ---------------------------------------------------------------------------
# Under any schedule of drops, duplicates, reordering and delay.

fates = st.lists(
    st.tuples(st.sampled_from(("deliver", "drop", "dup")),
              st.integers(1, 60), st.integers(0, 40)),
    max_size=120)
writes = st.lists(
    st.tuples(st.integers(0, 1500), st.sampled_from((0, 1)),
              st.integers(1, 4000)),
    max_size=10)


@given(fates=fates, writes=writes)
@settings(max_examples=150, deadline=None)
def test_an_owed_ack_has_a_timer_and_leaves_within_max_ack_delay(
        fates, writes):
    """Datagram *i* meets ``fates[i]``: delivered after a delay, dropped,
    or delivered twice; varying delays reorder.  Whenever a connection
    owes an ACK for an ack-eliciting 1-RTT packet, ``next_timer()`` is no
    later than its due time, and an ACK frame leaves within
    ``max_ack_delay`` of the packet's receipt, unless the connection
    closed."""
    reset_instance_counter()
    conns = [QuicConnection(QuicConfiguration(is_client=True)),
             QuicConnection(QuicConfiguration(is_client=False))]
    now = [0.0]
    #: Per receiver: receipt times of ack-eliciting 1-RTT packets that no
    #: ACK frame has covered yet.
    unacked: list = [[], []]

    def on_decoded(side):
        def hook(conn, args, result):
            epoch, _path, _pn, decoded = args
            if epoch is Epoch.ONE_RTT and any(
                    frame.ack_eliciting for _type, frame in decoded):
                unacked[side].append(now[0])
        return hook

    def on_ack_built(side):
        def hook(conn, args, result):
            if args[0] is Epoch.ONE_RTT:
                for received in unacked[side]:
                    assert now[0] <= received + MAX_ACK_DELAY + 1e-9
                unacked[side].clear()
        return hook

    for side, conn in enumerate(conns):
        conn.protoops.attach("frames_decoded", Anchor.POST, on_decoded(side))
        conn.protoops.attach("ack_frame_built", Anchor.POST,
                             on_ack_built(side))

    events: list = []  # (time, seq, kind, side, data)
    seq = iter(range(1 << 30))
    for ms, side, size in writes:
        heapq.heappush(events, (ms / 1000, next(seq), "write", side, size))
    fate = iter(fates)

    armed: list = [None, None]

    def pump(side: int) -> None:
        """Send what *side* has to send and re-arm its timer, as the
        endpoint driver does: a deadline already due still moves time,
        so a no-op alarm cannot hold the clock."""
        conn = conns[side]
        for payload, _path in conn.datagrams_to_send(now[0]):
            kind, delay_ms, extra_ms = next(fate, ("deliver", 10, 0))
            arrivals = {"drop": (), "deliver": (delay_ms,),
                        "dup": (delay_ms, delay_ms + extra_ms)}[kind]
            for ms in arrivals:
                heapq.heappush(events, (now[0] + ms / 1000, next(seq),
                                        "arrive", 1 - side, payload))
        deadline = conn.next_timer()
        armed[side] = (None if deadline is None
                       else max(deadline, now[0] + 1e-4))

    def check() -> None:
        for side, conn in enumerate(conns):
            if conn.state is not ConnectionState.ACTIVE:
                unacked[side].clear()
                continue
            space = conn.paths[0].space
            if space.ack_needed:
                assert space.ack_due >= now[0] - 1e-9
                assert conn.next_timer() <= space.ack_due + 1e-9

    pump(0)
    pump(1)
    end = 3.0
    for _ in range(20_000):
        timer, side = min(((t, s) for s, t in enumerate(armed)
                           if t is not None), default=(None, None))
        if events and (timer is None or events[0][0] <= timer):
            t, _, kind, side, data = heapq.heappop(events)
            if t > end:
                break
            now[0] = max(now[0], t)
            conn = conns[side]
            if kind == "arrive":
                conn.receive_datagram(data, now[0])
            elif conn.is_established and not conn.closed:
                conn.send_stream_data(conn.create_stream(), b"w" * data,
                                      fin=True)
        elif timer is not None and timer <= end:
            now[0] = timer
            conns[side].handle_timer(now[0])
        else:
            break
        pump(side)
        check()
    else:
        raise AssertionError("the schedule did not settle")
    for side, conn in enumerate(conns):
        if conn.state is ConnectionState.ACTIVE:
            assert all(received + MAX_ACK_DELAY > end
                       for received in unacked[side])
