"""The send loop stops when it is done — and only then.

``QuicConnection.datagrams_to_send`` skips a ``prepare_packet`` attempt
when :meth:`QuicConnection._nothing_to_send` says the attempt could only
come back empty *and* nobody is attached to the operations it would run.
These tests pin the two halves of that claim:

* soundness — whenever the predicate says "empty", a real attempt
  returns ``None`` and changes no connection state (a hypothesis
  property over connection pairs, plus one unit case per queue the
  predicate reads: deleting any clause fails the case named after it);
* transparency — any observer on any of the five operations, or run
  counting, brings back exactly one attempt per loop, and detaching
  takes it away again.
"""

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
from repro.quic import frames as F
from repro.quic.connection import (
    _SEND_ATTEMPT_OPS,
    ConnectionState,
    QuicConnection,
    ReservedFrame,
    reset_instance_counter,
)
from repro.trace import ConnectionTracer

from tests.test_quic_coalescing import exchange

#: Protoop runs of one empty attempt: one per operation it walks.
ATTEMPT_RUNS = len(_SEND_ATTEMPT_OPS)


def quiet_pair() -> tuple:
    """An established pair with nothing left to say to each other."""
    reset_instance_counter()
    client = QuicConnection(QuicConfiguration(is_client=True))
    server = QuicConnection(QuicConfiguration(is_client=False))
    exchange(client, server)
    assert client.is_established and server.is_established
    assert client._nothing_to_send() and server._nothing_to_send()
    return client, server


# ---------------------------------------------------------------------------
# One unit case per queue the predicate reads.


def _queue_client_hello(conn):
    conn._ch_pending = True
    conn._handshake_sent = False


def _queue_crypto(conn):
    conn._crypto_send.write(b"late handshake bytes")


def _owe_initial_ack(conn):
    conn.initial_space.ack_needed = True


def _owe_path_ack(conn):
    # Due now: a quiet pair may already owe an ACK that is not yet due.
    conn.paths[0].space.ack_needed = True
    conn.paths[0].space.ack_due = conn.now


def _queue_path_probe(conn):
    conn.paths[0].probe_frames.append(F.PathResponseFrame(data=b"12345678"))


def _queue_pto_probe(conn):
    conn.paths[0].pto_probes.append([F.PingFrame()])


def _queue_control_frame(conn):
    conn._control_frames.append(F.MaxDataFrame(maximum=1 << 20))


def _reserve_frame(conn):
    conn.reserve_frames([ReservedFrame(frame=F.PingFrame(), plugin="test")])


def _write_stream(conn):
    conn.send_stream_data(conn.create_stream(), b"hello")


def _finish_stream(conn):
    stream_id = conn.create_stream()
    conn.send_stream_data(stream_id, b"", fin=True)


QUEUES = {
    "client_hello": _queue_client_hello,
    "crypto": _queue_crypto,
    "initial_ack": _owe_initial_ack,
    "path_ack": _owe_path_ack,
    "probe_frames": _queue_path_probe,
    "pto_probes": _queue_pto_probe,
    "control_frame": _queue_control_frame,
    "reserved_frame": _reserve_frame,
    "stream_data": _write_stream,
    "stream_fin": _finish_stream,
}


class TestEveryQueueIsRead:
    @pytest.mark.parametrize("queue", sorted(QUEUES))
    def test_one_queued_item_is_sent(self, queue):
        """With exactly one queue non-empty the attempt is made and a
        packet leaves; the connection is quiet again afterwards."""
        client, server = quiet_pair()
        QUEUES[queue](client)
        assert not client._nothing_to_send()
        sent_before = client.stats["packets_sent"]
        out = client.datagrams_to_send(0.0)
        assert out, f"{queue}: queued but nothing was sent"
        assert client.stats["packets_sent"] > sent_before
        for payload, path_index in out:
            server.receive_datagram(payload, 0.0, path_index)
        exchange(client, server)
        assert client._nothing_to_send()

    def test_probe_on_a_second_path_is_sent_there(self):
        client, _server = quiet_pair()
        index = client.protoops.run(
            client, "create_path", None, "client.1", "server.0")
        client.paths[index].probe_frames.append(
            F.PathChallengeFrame(data=b"abcdefgh"))
        assert not client._nothing_to_send()
        (_payload, path_index), = client.datagrams_to_send(0.0)
        assert path_index == index

    def test_amplification_blocked_attempt_is_still_counted(self):
        """An amplification-limited path keeps its attempt: the block is
        visible in ``amp_blocked`` exactly as before."""
        _client, server = quiet_pair()
        path = server.paths[0]
        path.amp_limited, path.amp_received, path.amp_sent = True, 0, 0
        assert not server._nothing_to_send()
        assert server.datagrams_to_send(0.0) == []
        assert server.stats["amp_blocked"] == 1

    def test_flow_blocked_stream_makes_no_attempt(self):
        """A stream with every pending byte above the peer's limit has
        nothing sendable: the loop ends without an attempt."""
        client, _server = quiet_pair()
        stream_id = client.create_stream()
        client.send_stream_data(stream_id, b"x" * 300)
        stream = client.streams_send[stream_id]
        stream.max_stream_data = 0  # the peer's limit is used up
        assert stream.bytes_in_flight_or_pending and not stream.has_pending
        runs = client.protoops.runs
        assert client.datagrams_to_send(0.0) == []
        assert client.protoops.runs == runs

    def test_cwnd_blocked_attempt_is_still_made(self):
        client, _server = quiet_pair()
        client.send_stream_data(client.create_stream(), b"hello")
        client.paths[0].cc.bytes_in_flight = client.paths[0].cc.cwnd
        runs = client.protoops.runs
        assert client.datagrams_to_send(0.0) == []
        assert client.protoops.runs > runs  # stops short of stream_to_send


# ---------------------------------------------------------------------------
# Whoever is attached sees every attempt.


def _pre(conn, args):
    return None


def _post(conn, args, result):
    return None


class TestObserversRestoreTheAttempt:
    def test_plain_connection_makes_no_attempt_when_quiet(self):
        client, _server = quiet_pair()
        runs = client.protoops.runs
        assert client.datagrams_to_send(0.0) == []
        assert client.protoops.runs == runs

    @pytest.mark.parametrize("anchor", [Anchor.PRE, Anchor.POST],
                             ids=lambda anchor: anchor.value)
    @pytest.mark.parametrize("name", _SEND_ATTEMPT_OPS)
    def test_observer_brings_back_one_attempt_per_loop(self, name, anchor):
        client, _server = quiet_pair()
        fn = _pre if anchor is Anchor.PRE else _post
        client.protoops.attach(name, anchor, fn)
        runs = client.protoops.runs
        assert client.datagrams_to_send(0.0) == []
        assert client.protoops.runs == runs + ATTEMPT_RUNS
        client.protoops.detach(name, anchor, fn)
        runs = client.protoops.runs
        assert client.datagrams_to_send(0.0) == []
        assert client.protoops.runs == runs

    @pytest.mark.parametrize(
        "name", ["select_sending_path", "stream_to_send", "schedule_frames"])
    def test_replacement_brings_back_the_attempt(self, name):
        client, _server = quiet_pair()
        default = client.protoops.default(name)
        seen = []

        def replacement(conn, *args):
            seen.append(name)
            return default(conn, *args)

        client.protoops.attach(name, Anchor.REPLACE, replacement)
        assert client.datagrams_to_send(0.0) == []
        assert seen == [name]
        client.protoops.detach(name, Anchor.REPLACE, replacement)
        assert client.datagrams_to_send(0.0) == []
        assert seen == [name]

    def test_run_counting_brings_back_the_attempt(self):
        client, _server = quiet_pair()
        client.protoops.enable_run_counting()
        client.datagrams_to_send(0.0)
        assert client.protoops.run_counts["prepare_packet"] == 1
        assert client.protoops.run_counts["stream_to_send"] == 1
        client.protoops.disable_run_counting()
        runs = client.protoops.runs
        client.datagrams_to_send(0.0)
        assert client.protoops.runs == runs

    def test_one_attempt_per_packet_plus_one_when_observed(self):
        """The observed loop is the parent's: n packets, n + 1 attempts."""
        client, _server = quiet_pair()
        attempts = []
        client.protoops.attach(
            "before_sending_packet", Anchor.POST,
            lambda conn, args, result: attempts.append(1))
        client.send_stream_data(client.create_stream(), b"x" * 3000)
        sent_before = client.stats["packets_sent"]
        client.datagrams_to_send(0.0)
        packets = client.stats["packets_sent"] - sent_before
        assert packets >= 2 and len(attempts) == packets + 1

    def test_connection_tracer_hooks_none_of_the_five_and_sees_the_same(self):
        """A ``ConnectionTracer`` observes packets, not attempts: it
        leaves the skip on, and its trace is the one an attempt-per-loop
        connection produces."""

        def traced_transfer(force_attempts: bool):
            reset_instance_counter()
            sim = Simulator()
            topo = symmetric_topology(sim, d_ms=5, bw_mbps=10)
            server = ServerEndpoint(sim, topo.server, "server.0", 443)
            client = ClientEndpoint(
                sim, topo.client, "client.0", 5000, "server.0", 443)
            tracer = ConnectionTracer(client.conn)
            if force_attempts:
                client.conn.protoops.attach(
                    "before_sending_packet", Anchor.POST,
                    lambda conn, args, result: None)
            assert client.conn.protoops.untouched(
                _SEND_ATTEMPT_OPS) is not force_attempts
            client.connect()
            assert sim.run_until(
                lambda: client.conn.is_established, timeout=5)
            stream_id = client.conn.create_stream()
            client.conn.send_stream_data(stream_id, b"z" * 20_000, fin=True)
            client.pump()
            assert sim.run_until(
                lambda: not client.conn.streams_send, timeout=30)
            return ([(e.time, e.name, e.data) for e in tracer.events],
                    dict(client.conn.stats), server.connections[0].stats)

        assert traced_transfer(False) == traced_transfer(True)


# ---------------------------------------------------------------------------
# Soundness: "empty" means a real attempt is a no-op.


def _fingerprint(conn: QuicConnection) -> tuple:
    """Everything an attempt could touch, short of ``protoops.runs``."""
    spaces = tuple(
        (s.next_packet_number, tuple(sorted(s.sent)), s.ack_needed,
         s.loss_time, s.last_ack_eliciting_sent, s.ack_eliciting_in_flight,
         s.largest_acked)
        for s, _ in conn._spaces_and_paths())
    paths = tuple(
        (p.state, p.active, len(p.probe_frames),
         tuple(len(b) for b in p.pto_probes), p.probe_deadline, p.probe_count,
         p.amp_limited, p.amp_sent, p.cc.cwnd, p.cc.bytes_in_flight)
        for p in conn.paths)
    streams = tuple(
        (sid, repr(s._pending), s._fin_pending, s.fc_high, s.blocked,
         s.max_stream_data)
        for sid, s in conn.streams_send.items())
    return (
        tuple(sorted(conn.stats.items())), spaces, paths, streams,
        tuple(id(f) for f in conn._control_frames),
        tuple(id(r) for r in conn.reserved_frames),
        repr(conn._crypto_send._pending), conn._ch_pending,
        conn._handshake_sent, conn.data_sent, conn.max_data_remote,
        conn.state, conn._last_activity, conn._pto_count, conn.now,
        conn.spin_bit, conn.drain_deadline,
    )


class CheckedConnection(QuicConnection):
    """Makes the attempt the predicate says is pointless, and checks."""

    def _nothing_to_send(self) -> bool:
        empty = super()._nothing_to_send()
        if empty:
            before = _fingerprint(self)
            built = self.protoops.run(self, "prepare_packet", None)
            assert built is None, "skipped attempt would have built a packet"
            assert _fingerprint(self) == before, "skipped attempt changes state"
        return empty


sides = st.sampled_from((0, 1))
actions = st.one_of(
    st.tuples(st.just("write"), sides, st.integers(0, 3),
              st.integers(0, 6000), st.booleans()),
    st.tuples(st.just("reset"), sides, st.integers(0, 3)),
    st.tuples(st.just("flight"), sides, st.integers(0, 255)),
    st.tuples(st.just("timer"), sides),
    st.tuples(st.just("advance"), st.integers(1, 400)),
    st.tuples(st.just("probe"), sides),
    st.tuples(st.just("reserve"), sides, st.booleans()),
    st.tuples(st.just("close"), sides),
)


@given(handshake_drops=st.integers(0, 7),
       script=st.lists(actions, max_size=40))
@settings(max_examples=300, deadline=None)
def test_empty_verdict_means_a_real_attempt_is_a_no_op(handshake_drops, script):
    reset_instance_counter()
    params = dict(initial_max_data=8000, initial_max_stream_data=3000)
    conns = [
        CheckedConnection(QuicConfiguration(
            is_client=True,
            transport_parameters=TransportParameters(**params))),
        CheckedConnection(QuicConfiguration(
            is_client=False,
            transport_parameters=TransportParameters(**params))),
    ]
    now = [0.0]
    opened: list = [[], []]

    def flight(side: int, drop_mask: int) -> None:
        """One ``datagrams_to_send`` of *side*; datagram *i* is lost when
        bit ``i % 8`` of *drop_mask* is set."""
        src, dst = conns[side], conns[1 - side]
        for i, (payload, path_index) in enumerate(
                src.datagrams_to_send(now[0])):
            if not drop_mask >> (i % 8) & 1:
                dst.receive_datagram(payload, now[0], path_index)

    # Handshake, with the first flights optionally lost so that PTO
    # recovery of the Initial space is part of the walk.
    for round_ in range(6):
        flight(0, handshake_drops >> round_ & 1)
        flight(1, 0)
        for conn in conns:
            deadline = conn.next_timer()
            if deadline is not None and not conn.is_established:
                now[0] = max(now[0], deadline)
                conn.handle_timer(now[0])

    for action in script:
        kind = action[0]
        if kind == "advance":
            now[0] += action[1] / 1000.0
            continue
        conn = conns[action[1]]
        if kind == "flight":
            flight(action[1], action[2])
        elif kind == "timer":
            deadline = conn.next_timer()
            if deadline is not None:
                now[0] = max(now[0], deadline)
                conn.handle_timer(now[0])
            flight(action[1], 0)
        elif conn.state is not ConnectionState.ACTIVE:
            continue
        elif kind == "write":
            _, side, slot, size, fin = action
            mine = opened[side]
            if slot >= len(mine):
                mine.append(conn.create_stream())
                slot = len(mine) - 1
            stream = conn.streams_send.get(mine[slot])
            if stream is not None and not stream.fin:
                conn.send_stream_data(mine[slot], b"d" * size, fin=fin)
        elif kind == "reset":
            mine = opened[action[1]]
            if action[2] < len(mine):
                stream = conn.streams_send.get(mine[action[2]])
                if stream is not None:
                    conn.protoops.run(
                        conn, "queue_control_frame", None,
                        F.ResetStreamFrame(
                            stream_id=stream.stream_id, error_code=0,
                            final_size=stream._highest_offset))
        elif kind == "probe":
            conn.start_path_validation(0)
        elif kind == "reserve":
            conn.reserve_frames([ReservedFrame(
                frame=F.PingFrame(), plugin="test",
                congestion_controlled=action[2])])
        elif kind == "close":
            conn.close(0, "done")

    # Drain: whatever is left must still obey the property.
    for _ in range(4):
        flight(0, 0)
        flight(1, 0)
