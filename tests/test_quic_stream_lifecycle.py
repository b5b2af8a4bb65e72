"""Stream lifecycle: finished halves leave the live tables.

A send half is retired when its FIN and every byte before it are
acknowledged, a receive half when its final size is known and every byte
was handed to the application, or when RESET_STREAM arrives.  Retired IDs
live on in the closed-ID sets, so a late frame is recognised and dropped
instead of bringing the stream back to life.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.transfer import BulkClient, BulkServer
from repro.core import PluginInstance
from repro.core.protoop import Anchor
from repro.netsim import FaultInjector, Simulator, symmetric_topology
from repro.plugins import build_monitoring_plugin
from repro.plugins.monitoring import MonitoringCollector
from repro.quic import (
    ClientEndpoint,
    QuicConfiguration,
    QuicConnection,
    ServerEndpoint,
    TransportParameters,
)
from repro.quic import frames as F
from repro.errors import (
    FinalSizeError,
    FlowControlError,
    StreamStateError,
    TransportError,
    TransportErrorCode,
)


def bare_connection(**params) -> QuicConnection:
    """A server-side connection fed frames directly, with no handshake."""
    return QuicConnection(QuicConfiguration(
        is_client=False,
        transport_parameters=TransportParameters(**params)))


def connected_pair(on_connection, loss_pct=0.0, seed=1, faults=None):
    """An established client/server pair; ``on_connection(conn, pump)``
    sets up the server side of each accepted connection."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=5, bw_mbps=50, loss_pct=loss_pct,
                              seed=seed)
    if faults is not None:
        FaultInjector(sim, seed=seed, **faults).inject_link(topo.path_links[0])
    server = ServerEndpoint(
        sim, topo.server, "server.0", 443,
        on_connection=lambda conn: on_connection(
            conn, lambda: server._by_cid[conn.local_cid].pump()))
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443)
    client.connect()
    assert sim.run_until(
        lambda: client.conn.is_established and server.connections, timeout=10)
    return sim, client, server


def echo_with_fin(conn, pump=None) -> None:
    """Answer every finished request stream with 512 bytes and a FIN."""
    def on_data(stream_id, data, fin):
        if fin:
            conn.send_stream_data(stream_id, b"r" * 512, fin=True)
    conn.on_stream_data = on_data


def closed_sets(conn) -> tuple:
    return conn.closed_streams_send + conn.closed_streams_recv


def snapshot(conn) -> tuple:
    """Everything a late frame for a retired half must leave alone."""
    return (
        sorted(conn.streams_send), sorted(conn.streams_recv),
        [list(s) for s in closed_sets(conn)],
        conn.data_received, conn.data_sent,
        conn.max_data_local, conn.max_data_remote,
        list(conn._control_frames), dict(conn.stats),
    )


class TestRetirement:
    def test_sequential_requests_keep_tables_constant(self):
        """5000 request/response streams on one connection: the live
        tables never hold more than the stream in progress and the one
        whose last ACK is still in flight, and in-order closing keeps
        every closed-ID set a single range."""
        sim, client, server = connected_pair(echo_with_fin)
        sconn = server.connections[0]
        done = []
        client.conn.on_stream_data = (
            lambda stream_id, data, fin: done.append(stream_id) if fin else None)
        for i in range(5000):
            stream_id = client.conn.create_stream()
            client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
            client.pump()
            assert sim.run_until(lambda: len(done) == i + 1, timeout=5)
            for conn in (client.conn, sconn):
                assert len(conn.streams_send) + len(conn.streams_recv) <= 4
                assert all(len(s) <= 1 for s in closed_sets(conn))
        assert list(client.conn.closed_streams_recv[0]) == [range(0, 5000)]
        assert list(sconn.closed_streams_recv[0]) == [range(0, 5000)]
        assert client.conn.stats["stream_halves_retired"] >= 2 * 5000 - 1

    @pytest.mark.parametrize("finish", [
        {1, 3, 5, 7, 9},
        {9, 4, 5, 0},
        {2, 3, 4, 8},
        set(range(10)),
    ])
    def test_closed_id_ranges_bounded_by_open_streams_below(self, finish):
        """Streams closed out of order around streams left open for
        ever: each still-open stream can split the closed IDs once."""
        received = {}

        def on_connection(conn, pump):
            conn.on_stream_data = (
                lambda stream_id, data, fin:
                received.__setitem__(stream_id, fin))

        sim, client, server = connected_pair(on_connection)
        ids = [client.conn.create_stream() for _ in range(10)]
        for index in sorted(finish, reverse=True):
            client.conn.send_stream_data(ids[index], b"x" * 100, fin=True)
        for index in set(range(10)) - finish:
            client.conn.send_stream_data(ids[index], b"x" * 100, fin=False)
        client.pump()
        assert sim.run_until(
            lambda: len(received) == 10
            and len(client.conn.streams_send) == 10 - len(finish), timeout=5)
        open_indexes = set(range(10)) - finish
        for closed in (client.conn.closed_streams_send[0],
                       server.connections[0].closed_streams_recv[0]):
            assert sum(len(r) for r in closed) == len(finish)
            top = closed.largest()
            assert len(closed) <= sum(1 for i in open_indexes if i < top) + 1

    def test_unfinished_stream_stays_live_and_writable(self):
        """The transfer app's GET carries no FIN: its send half is fully
        acknowledged yet never retired, and can be written again."""
        bulk_server = BulkServer()
        sim, client, server = connected_pair(bulk_server.attach)
        bulk = BulkClient(client.conn, client.pump)
        bulk.request(20_000, sim.now)
        assert sim.run_until(lambda: bulk.completed, timeout=10)
        sim.run(until=sim.now + 0.5)
        sconn = server.connections[0]
        assert client.conn.streams_send[0].all_acked
        assert list(client.conn.streams_recv) == []
        assert list(sconn.streams_send) == []
        assert list(sconn.streams_recv) == [0]
        client.conn.send_stream_data(0, b"more", fin=False)

    def test_write_after_retirement_raises(self):
        sim, client, server = connected_pair(echo_with_fin)
        stream_id = client.conn.create_stream()
        client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
        client.pump()
        assert sim.run_until(
            lambda: stream_id not in client.conn.streams_send, timeout=5)
        with pytest.raises(StreamStateError):
            client.conn.send_stream_data(stream_id, b"again")
        assert stream_id not in client.conn.streams_send

    def test_release_state_clears_closed_ids(self):
        sim, client, server = connected_pair(echo_with_fin)
        stream_id = client.conn.create_stream()
        client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
        client.pump()
        assert sim.run_until(
            lambda: client.conn.closed_streams_send[0]
            and client.conn.closed_streams_recv[0], timeout=5)
        client.close()
        assert sim.run_until(
            lambda: client.conn.state == "closed", timeout=10)
        assert not any(closed_sets(client.conn))
        assert not client.conn.streams_send and not client.conn.streams_recv


class TestLateFrames:
    def test_duplicate_final_frame_delivers_fin_once(self):
        """A retransmission or PTO probe whose original also arrives
        repeats the final STREAM frame in a fresh packet."""
        conn = bare_connection()
        delivered = []
        conn.on_stream_data = lambda *args: delivered.append(args)
        final = F.StreamFrame(stream_id=0, offset=0, data=b"hello", fin=True)
        conn._process_stream_frame(final, {})
        conn._process_stream_frame(final, {})
        assert delivered == [(0, b"hello", True)]
        assert conn.data_received == 5

    def test_late_frames_for_retired_halves_change_nothing(self):
        sim, client, server = connected_pair(echo_with_fin)
        stream_id = client.conn.create_stream()
        client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
        client.pump()
        sconn = server.connections[0]
        assert sim.run_until(
            lambda: not client.conn.streams_send and not client.conn.streams_recv
            and not sconn.streams_send and not sconn.streams_recv, timeout=5)
        delivered = []
        late = [
            ("_process_stream_frame", F.StreamFrame(
                stream_id=stream_id, offset=0, data=b"q" * 64, fin=True)),
            ("_process_stream_frame", F.StreamFrame(
                stream_id=stream_id, offset=64, data=b"beyond", fin=False)),
            ("_process_max_stream_data_frame", F.MaxStreamDataFrame(
                stream_id=stream_id, maximum=1 << 40)),
            ("_process_reset_stream_frame", F.ResetStreamFrame(
                stream_id=stream_id, error_code=7, final_size=1 << 40)),
        ]
        for conn in (client.conn, sconn):
            conn.on_stream_data = lambda *args: delivered.append(args)
            conn.protoops.attach(
                "stream_closed", Anchor.POST,
                lambda c, args, result: delivered.append(args))
            before = snapshot(conn)
            for processor, frame in late:
                getattr(conn, processor)(frame, {})
            assert snapshot(conn) == before
        assert delivered == []

    def test_retransmitted_fin_through_fault_injector(self):
        """Reordering holds packets back past the loss threshold, so the
        retransmission and the original both arrive; the transfer app
        must still see each response end exactly once."""
        bulk_server = BulkServer()
        sim, client, server = connected_pair(
            bulk_server.attach, loss_pct=1.0, seed=5,
            faults=dict(duplicate_rate=0.05, reorder_rate=0.2,
                        reorder_delay=0.08))
        bulk = BulkClient(client.conn, client.pump)
        fins = []
        on_data = client.conn.on_stream_data

        def counting(stream_id, data, fin):
            if fin:
                fins.append(stream_id)
            on_data(stream_id, data, fin)

        client.conn.on_stream_data = counting
        for _ in range(40):
            bulk.request(3000, sim.now)
            assert sim.run_until(lambda: bulk.completed, timeout=30)
            assert bulk.received == 3000
        sim.run(until=sim.now + 2.0)
        assert fins == [4 * i for i in range(40)]
        assert bulk_server.requests == 40
        assert client.conn.state == "active"


class TestStreamClosedEvent:
    def test_fires_once_when_probe_and_original_are_both_acked(self):
        """PR 10 keeps a PTO probe's original tracked, so the final
        STREAM frame can be acknowledged twice."""
        conn = bare_connection()
        closed = []
        conn.protoops.attach(
            "stream_closed", Anchor.POST,
            lambda c, args, result: closed.append(args[0]))
        conn.send_stream_data(0, b"payload", fin=True)
        offset, data, fin = conn.streams_send[0].next_chunk(1000)
        frame = F.StreamFrame(stream_id=0, offset=offset, data=data, fin=fin)
        for _ in range(2):
            conn.protoops.run(conn, "notify_frame", "stream", frame, True, None)
        assert closed == [0]
        assert 0 not in conn.streams_send

    def test_not_fired_for_acked_stream_without_fin(self):
        conn = bare_connection()
        closed = []
        conn.protoops.attach(
            "stream_closed", Anchor.POST,
            lambda c, args, result: closed.append(args[0]))
        conn.send_stream_data(0, b"payload", fin=False)
        offset, data, fin = conn.streams_send[0].next_chunk(1000)
        frame = F.StreamFrame(stream_id=0, offset=offset, data=data, fin=fin)
        conn.protoops.run(conn, "notify_frame", "stream", frame, True, None)
        assert closed == []
        assert conn.streams_send[0].all_acked

    def test_monitoring_counts_each_close_once_on_lossy_path(self):
        """count_stream_close on a path lossy enough for PTO probes,
        whose copies of a final frame are acknowledged along with the
        original."""
        finished = set()

        def on_connection(conn, pump):
            conn.on_stream_data = (
                lambda stream_id, data, fin:
                finished.add(stream_id) if fin else None)

        sim, client, server = connected_pair(on_connection, loss_pct=8.0,
                                             seed=3)
        PluginInstance(build_monitoring_plugin(), client.conn).attach()
        collector = MonitoringCollector()
        collector.attach(client.conn)
        for i in range(60):
            stream_id = client.conn.create_stream()
            client.conn.send_stream_data(stream_id, b"q" * 64, fin=True)
            client.pump()
            assert sim.run_until(lambda: len(finished) == i + 1, timeout=30)
        sim.run(until=sim.now + 5.0)
        assert client.conn.stats["probes_sent"] > 0
        client.close()
        assert collector.reports[-1]["streams_closed"] == 60


class TestResetStream:
    def test_reset_retires_and_charges_flow_control(self):
        conn = bare_connection()
        closed = []
        conn.protoops.attach(
            "stream_closed", Anchor.POST,
            lambda c, args, result: closed.append(args[0]))
        conn._process_stream_frame(
            F.StreamFrame(stream_id=0, offset=0, data=b"x" * 100), {})
        assert conn.data_received == 100
        conn._process_reset_stream_frame(
            F.ResetStreamFrame(stream_id=0, error_code=1,
                               final_size=300), {})
        assert conn.data_received == 300
        assert 0 not in conn.streams_recv and 0 in conn.streams_send
        assert list(conn.closed_streams_recv[0]) == [range(0, 1)]
        assert closed == [0]

    def test_repeated_reset_is_ignored(self):
        conn = bare_connection()
        closed = []
        conn.protoops.attach(
            "stream_closed", Anchor.POST,
            lambda c, args, result: closed.append(args[0]))
        reset = F.ResetStreamFrame(stream_id=4, error_code=1, final_size=50)
        conn._process_reset_stream_frame(reset, {})
        before = snapshot(conn)
        conn._process_reset_stream_frame(reset, {})
        conn._process_reset_stream_frame(
            F.ResetStreamFrame(stream_id=4, error_code=1,
                               final_size=999), {})
        assert snapshot(conn) == before
        assert closed == [4]

    def test_final_size_below_received_data(self):
        conn = bare_connection()
        conn._process_stream_frame(
            F.StreamFrame(stream_id=0, offset=0, data=b"x" * 100), {})
        with pytest.raises(FinalSizeError):
            conn._process_reset_stream_frame(
                F.ResetStreamFrame(stream_id=0, error_code=0,
                                   final_size=99), {})

    def test_final_size_contradicts_known_final_size(self):
        conn = bare_connection()
        # The FIN arrives ahead of a gap, so the half is finished-sized
        # but still live.
        conn._process_stream_frame(
            F.StreamFrame(stream_id=0, offset=50, data=b"x" * 50,
                          fin=True), {})
        with pytest.raises(FinalSizeError):
            conn._process_reset_stream_frame(
                F.ResetStreamFrame(stream_id=0, error_code=0,
                                   final_size=200), {})
        conn._process_reset_stream_frame(
            F.ResetStreamFrame(stream_id=0, error_code=0,
                               final_size=100), {})
        assert conn.data_received == 100
        assert 0 not in conn.streams_recv

    def test_final_size_beyond_stream_limit(self):
        conn = bare_connection(initial_max_stream_data=1000)
        with pytest.raises(FlowControlError):
            conn._process_reset_stream_frame(
                F.ResetStreamFrame(stream_id=0, error_code=0,
                                   final_size=1001), {})

    def test_final_size_beyond_connection_limit(self):
        conn = bare_connection(initial_max_data=500,
                               initial_max_stream_data=1000)
        conn._process_stream_frame(
            F.StreamFrame(stream_id=0, offset=0, data=b"x" * 200), {})
        assert conn.max_data_local == 500
        with pytest.raises(TransportError) as info:
            conn._process_reset_stream_frame(
                F.ResetStreamFrame(stream_id=4, error_code=0,
                                   final_size=301), {})
        assert info.value.code == TransportErrorCode.FLOW_CONTROL_ERROR


# --- random interleavings over a hostile path ---------------------------

#: One application step: (stream slot, bytes to write, set FIN).
steps = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 3000), st.booleans()),
    min_size=1, max_size=30)


@given(plan=steps, seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_random_interleavings_deliver_every_byte_and_fin_once(plan, seed):
    """Open / write / FIN on up to 8 concurrent streams over a path that
    loses 2 %, duplicates and reorders; the server echoes every chunk, so
    both directions carry data."""
    got = {"server": {}, "client": {}}
    fins = {"server": [], "client": []}

    def recorder(side, then=None):
        def on_data(stream_id, data, fin):
            got[side].setdefault(stream_id, bytearray()).extend(data)
            if fin:
                fins[side].append(stream_id)
            if then is not None:
                then(stream_id, data, fin)
        return on_data

    def on_connection(conn, pump):
        conn.on_stream_data = recorder(
            "server", lambda stream_id, data, fin:
            conn.send_stream_data(stream_id, bytes(data), fin=fin))

    sim, client, server = connected_pair(
        on_connection, loss_pct=2.0, seed=seed,
        faults=dict(duplicate_rate=0.05, reorder_rate=0.1,
                    reorder_delay=0.03))
    conn = client.conn
    sconn = server.connections[0]
    conn.on_stream_data = recorder("client")
    slots: dict = {}
    sent: dict = {}
    finished = set()
    for step, (slot, size, fin) in enumerate(plan):
        stream_id = slots.get(slot)
        if stream_id is None or stream_id in finished:
            stream_id = slots[slot] = conn.create_stream()
        payload = bytes([step % 251]) * size
        conn.send_stream_data(stream_id, payload, fin=fin)
        sent.setdefault(stream_id, bytearray()).extend(payload)
        if fin:
            finished.add(stream_id)
        client.pump()
        sim.run(until=sim.now + 0.002)

    def settled():
        return (all(bytes(got["client"].get(s, b"")) == bytes(sent[s])
                    for s in sent)
                and sorted(fins["client"]) == sorted(finished)
                and not (finished & set(conn.streams_send))
                and not (finished & set(sconn.streams_send)))

    assert sim.run_until(settled, timeout=60)
    sim.run(until=sim.now + 1.0)
    for side in ("server", "client"):
        assert {s: bytes(b) for s, b in got[side].items() if b or s in sent} \
            == {s: bytes(b) for s, b in sent.items() if b or s in got[side]}
        assert sorted(fins[side]) == sorted(finished)
    assert conn.data_sent == sconn.data_received == sum(map(len, sent.values()))
    assert sconn.data_sent == conn.data_received == conn.data_sent
    for endpoint in (conn, sconn):
        assert not (finished & set(endpoint.streams_send))
        assert not (finished & set(endpoint.streams_recv))
        assert endpoint.state == "active"
