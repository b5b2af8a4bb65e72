"""Receive-window auto-tuning (``repro.quic.stream.FlowWindow``).

At each credit renewal a receive window — per stream and per connection —
becomes ``max(window, 2.5 × delivery rate since the previous renewal ×
min RTT)``, capped at 16 × its initial size.  These tests pin the gain on
a ``bulk-clean``-shaped path, that request/response traffic keeps the
credit frames of the fixed-window rule, and the bounds of the new state.
"""

from __future__ import annotations

import random

import pytest

from repro.core.protoop import Anchor
from repro.errors import TransportErrorCode
from repro.netsim import FaultInjector, Simulator, symmetric_topology
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic import frames as F
from repro.quic.connection import reset_instance_counter
from repro.quic.stream import FLOW_WINDOW_CAP, FLOW_WINDOW_GAIN, FlowWindow
from repro.quic.transport_params import TransportParameters

#: The bench's ``bulk-clean`` path: a buffer above the 250 kB
#: bandwidth-delay product, so nothing is lost.
BULK_PATH = dict(d_ms=10, bw_mbps=100, loss_pct=0.0, buffer_bytes=512 * 1024)
DEFAULT = TransportParameters()


class Download:
    """The client asks for ``size`` bytes on one stream and the server
    answers with them, as the bench's bulk workloads do: the client is
    the receiver whose windows are tuned."""

    def __init__(self, size: int, path: dict = BULK_PATH,
                 params: TransportParameters = None):
        reset_instance_counter()
        self.sim = Simulator()
        self.topo = symmetric_topology(self.sim, **path)
        self.payload = random.Random(size).randbytes(size)
        self.sender = None
        ServerEndpoint(self.sim, self.topo.server, "server.0", 443,
                       on_connection=self._serve)
        self.client = ClientEndpoint(
            self.sim, self.topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(
                is_client=True, seed=1,
                transport_parameters=params or TransportParameters()))
        self.conn = self.client.conn
        self.received = bytearray()
        self.done = False
        self.conn.on_stream_data = self._on_data
        self.client.connect()
        assert self.sim.run_until(
            lambda: self.conn.is_established and self.sender is not None,
            timeout=10)

    def _serve(self, conn) -> None:
        self.sender = conn
        conn.on_stream_data = lambda sid, data, fin: (
            conn.send_stream_data(sid, self.payload, fin=True) if fin else None)

    def _on_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        self.received.extend(data)
        if fin:
            self.done = True
            self.finished = self.sim.now

    def start(self) -> int:
        self.started = self.sim.now
        stream_id = self.conn.create_stream()
        self.conn.send_stream_data(stream_id, b"GET", fin=True)
        self.client.pump()
        return stream_id

    def run(self, timeout: float = 60.0) -> None:
        self.start()
        assert self.sim.run_until(lambda: self.done, timeout=timeout)
        assert bytes(self.received) == self.payload

    @property
    def goodput_mbps(self) -> float:
        return len(self.payload) * 8 / (self.finished - self.started) / 1e6


class FlowBlockedSampler:
    """Samples the sender every simulated millisecond while it has stream
    data not yet sent.  Each sample records whether flow control holds
    that data back — every unsent byte of a stream at or above the peer's
    MAX_STREAM_DATA, or no connection credit left — and whether it does
    so with less than one bandwidth-delay product in flight, i.e. while
    the window starves the path."""

    def __init__(self, download: Download, bandwidth_mbps: float,
                 interval: float = 1e-3):
        self.download = download
        self.bytes_per_s = bandwidth_mbps * 1e6 / 8
        self.interval = interval
        self.blocked: list = []
        self.starved: list = []
        download.sim.schedule(interval, self._tick)

    def _tick(self) -> None:
        download = self.download
        conn = download.sender
        waiting = [s for s in conn.streams_send.values()
                   if s.bytes_in_flight_or_pending]
        if waiting:
            blocked = (conn.connection_flow_credit() == 0
                       or any(not s.has_pending for s in waiting))
            path = conn.paths[0]
            bdp = self.bytes_per_s * path.rtt.min_rtt
            self.blocked.append(blocked)
            self.starved.append(blocked and path.cc.bytes_in_flight < bdp)
        if not download.done:
            download.sim.schedule(self.interval, self._tick)

    @staticmethod
    def share(samples: list) -> float:
        return sum(samples) / len(samples)


def upload_pair(params: TransportParameters) -> tuple:
    """An established connection on the bulk path whose *server* is the
    receiver, with *params*: ``(sim, client endpoint, server conn)``."""
    reset_instance_counter()
    sim = Simulator()
    topo = symmetric_topology(sim, **BULK_PATH)
    receivers: list = []
    ServerEndpoint(
        sim, topo.server, "server.0", 443,
        configuration_factory=lambda: QuicConfiguration(
            is_client=False, transport_parameters=params),
        on_connection=receivers.append)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443)
    client.connect()
    assert sim.run_until(
        lambda: client.conn.is_established and receivers, timeout=10)
    return sim, client, receivers[0]


def watch_credit(conn) -> list:
    """Every MAX_DATA / MAX_STREAM_DATA frame *conn* queues, in order."""
    frames: list = []
    conn.protoops.attach(
        "queue_control_frame", Anchor.POST,
        lambda c, args, result: frames.append(args[0])
        if isinstance(args[0], (F.MaxDataFrame, F.MaxStreamDataFrame))
        else None)
    return frames


# ---------------------------------------------------------------------------
# The gain.


class TestFillThePipe:
    def test_bulk_download_fills_the_path_without_loss(self):
        # bulk-clean's 16 MB: the window settles after ~270 ms of slow
        # start and growth, so a 4 MB download averages only 70 Mbit/s.
        download = Download(16_000_000)
        sampler = FlowBlockedSampler(download, BULK_PATH["bw_mbps"])
        download.run()
        # The fixed 256 KiB window reached 47.6 Mbit/s here.
        assert download.goodput_mbps >= 85, download.goodput_mbps
        assert download.conn.stats["packets_lost"] == 0
        assert download.sender.stats["packets_lost"] == 0
        assert len(sampler.starved) > 1000
        # The fixed window starved the path in 92 % of the samples (and
        # was blocked in 97 %); the tuned one only while it grows.
        assert sampler.share(sampler.starved) < 0.10
        # Slow start never ends on a loss-free path, so the congestion
        # window never binds: the receive window is what bounds the data
        # in flight, and the sender still waits on credit most of the time.
        assert sampler.share(sampler.blocked) > 0.9

    def test_stream_window_grew_and_connection_window_did_not_need_to(self):
        download = Download(4_000_000)
        stream_id = download.start()
        stream = download.conn.streams_recv[stream_id]
        peak = [0]
        download.conn.protoops.attach(
            "update_flow_credit", Anchor.POST,
            lambda c, args, result: peak.__setitem__(
                0, max(peak[0], stream.window.size)))
        assert download.sim.run_until(lambda: download.done, timeout=60)
        initial = DEFAULT.initial_max_stream_data
        # 2.5 × a 250 kB bandwidth-delay product, below the cap.
        assert initial < peak[0] < FLOW_WINDOW_CAP * initial
        assert download.conn._data_window.size == DEFAULT.initial_max_data


class TestRequestResponseUnchanged:
    """An app-limited connection renews credit exactly as the fixed
    window did: the measured rate × min RTT stays far below the window."""

    def run_requests(self, count: int, response: tuple) -> tuple:
        reset_instance_counter()
        rng = random.Random(7)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=1, bw_mbps=1000)

        server_frames: list = []

        def serve(conn):
            server_frames.append(watch_credit(conn))
            conn.on_stream_data = lambda sid, d, fin: (
                conn.send_stream_data(sid, bytes(rng.randint(*response)),
                                      fin=True) if fin else None)

        ServerEndpoint(sim, topo.server, "server.0", 443, on_connection=serve)
        client = ClientEndpoint(
            sim, topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(is_client=True, seed=1))
        frames = watch_credit(client.conn)
        done = set()
        client.conn.on_stream_data = (
            lambda sid, d, fin: done.add(sid) if fin else None)
        client.connect()
        assert sim.run_until(lambda: client.conn.is_established, timeout=10)
        for _ in range(count):
            sid = client.conn.create_stream()
            client.conn.send_stream_data(sid, bytes(64), fin=True)
            client.pump()
            assert sim.run_until(lambda: sid in done, timeout=10)
        return client.conn, frames, server_frames[0]

    def test_rpc_small_shape_sends_no_credit_frame(self):
        # 600 requests of 64 B answered with 486-537 B (rpc-small's ±5 %
        # around 512 B): the fixed-window rule sent none either.
        conn, frames, server_frames = self.run_requests(600, (486, 537))
        assert frames == [] and server_frames == []
        assert conn.max_data_local == DEFAULT.initial_max_data

    def test_larger_responses_renew_exactly_as_the_fixed_window(self):
        # 4 KiB answers cross the half-window mark four times; the fixed
        # 1 MiB window sent these four MAX_DATA frames, with these limits.
        conn, frames, server_frames = self.run_requests(600, (3900, 4300))
        assert [type(f) for f in frames] == [F.MaxDataFrame] * 4
        assert [f.maximum for f in frames] == [
            1_573_109, 2_098_314, 2_623_656, 3_148_500]
        assert conn.max_data_local == 3_148_500
        assert server_frames == []
        assert conn._data_window.size == DEFAULT.initial_max_data


# ---------------------------------------------------------------------------
# Bounds of the new state.


class TestFlowWindowUnit:
    def test_growth_is_gain_times_rate_times_min_rtt(self):
        window = FlowWindow(100_000, now=0.0)
        # 1 MB in 0.1 s with a 20 ms min RTT: 2.5 × 10 MB/s × 0.02 s.
        limit = window.renew(1_000_000, 1_000_000, 1_000_000, 0.1, 0.02)
        assert window.size == int(FLOW_WINDOW_GAIN * 10_000_000 * 0.02)
        assert limit == 1_000_000 + window.size

    def test_window_is_capped(self):
        window = FlowWindow(1000, now=0.0)
        window.renew(10**9, 10**9, 10**9, 1e-3, 1.0)
        assert window.size == window.cap == FLOW_WINDOW_CAP * 1000

    def test_no_rtt_sample_or_no_elapsed_time_leaves_the_window(self):
        window = FlowWindow(1000, now=1.0)
        assert window.renew(5000, 5000, 4900, 2.0, float("inf")) == 6000
        assert window.renew(9000, 9000, 6000, 2.0, 0.01) == 10_000
        assert window.size == 1000

    def test_a_renewal_that_grants_nothing_takes_nothing_back(self):
        window = FlowWindow(1000, now=0.0)
        assert window.renew(600, 0, 1000, 0.5, 0.01) == 0
        assert window.size == 1000
        # The measurement kept running from t = 0: 1200 B over 1 s.
        assert window.renew(1200, 1200, 1000, 1.0, 0.01) == 2200


class TestBoundAudit:
    def test_tuned_window_never_exceeds_the_cap(self):
        # 16 KiB windows on a 625 kB bandwidth-delay product: the wanted
        # window (2.5 × BDP) is far above the 256 KiB cap.
        initial = 16 * 1024
        download = Download(
            4_000_000, path=dict(d_ms=25, bw_mbps=100, buffer_bytes=2 << 20),
            params=TransportParameters(initial_max_data=initial,
                                       initial_max_stream_data=initial))
        conn = download.conn
        seen = []

        def check(c, args, result):
            windows = [conn._data_window] + [
                s.window for s in conn.streams_recv.values()]
            for window in windows:
                assert window.size <= window.cap == FLOW_WINDOW_CAP * initial
            assert conn.max_data_local - conn.data_received <= conn._data_window.cap
            for s in conn.streams_recv.values():
                assert s.max_stream_data - s.bytes_received <= s.window.cap
            seen.append(max(w.size for w in windows))

        conn.protoops.attach("update_flow_credit", Anchor.POST, check)
        download.run()
        assert max(seen) == FLOW_WINDOW_CAP * initial

    def test_advertised_limits_never_decrease(self, monkeypatch):
        # A 2 ms outage leaves a gap that its retransmission fills a round
        # trip and a queue later; more than half a window arrives beyond
        # it meanwhile, so renewals come due that the lagging read offset
        # cannot turn into a higher limit.
        lagging = []
        renew = FlowWindow.renew

        def counting_renew(window, received, base, limit, now, min_rtt):
            result = renew(window, received, base, limit, now, min_rtt)
            if base + window.size <= limit:
                lagging.append(base)
            return result

        monkeypatch.setattr(FlowWindow, "renew", counting_renew)
        download = Download(4_000_000)
        faults = FaultInjector(download.sim)
        faults.inject(download.topo.path_links[0].backward)
        faults.schedule_flap(download.sim.now + 0.3, 0.002)
        conn = download.conn
        frames = watch_credit(conn)
        limits = []
        conn.protoops.attach(
            "update_flow_credit", Anchor.POST,
            lambda c, args, result: limits.append(
                (conn.max_data_local,
                 {sid: s.max_stream_data
                  for sid, s in conn.streams_recv.items()})))
        download.run()
        assert download.sender.stats["packets_lost"] > 0 and lagging
        for (data_a, streams_a), (data_b, streams_b) in zip(limits, limits[1:]):
            assert data_b >= data_a
            for sid in streams_a.keys() & streams_b.keys():
                assert streams_b[sid] >= streams_a[sid]
        last: dict = {}
        for frame in frames:
            key = getattr(frame, "stream_id", None)
            assert frame.maximum > last.get(key, 0)
            last[key] = frame.maximum
        assert any(isinstance(f, F.MaxStreamDataFrame) for f in frames)

    def test_trickling_sender_never_grows_the_window(self):
        # 4 KiB every 20 ms on a 100 Mbit/s path: app-limited, however
        # many times credit is renewed.
        initial = 32 * 1024
        sim, client, receiver = upload_pair(
            TransportParameters(initial_max_stream_data=initial))
        frames = watch_credit(receiver)
        stream_id = client.conn.create_stream()
        for _ in range(100):
            client.conn.send_stream_data(stream_id, bytes(4096))
            client.pump()
            sim.run(until=sim.now + 0.02)
        stream = receiver.streams_recv[stream_id]
        assert stream.bytes_received == 100 * 4096
        assert stream.window.size == initial
        assert len([f for f in frames if isinstance(f, F.MaxStreamDataFrame)]) >= 10

    @pytest.mark.parametrize("level", ["stream", "connection"])
    def test_peer_sending_past_the_tuned_limit_is_closed(self, level):
        initial = 64 * 1024
        params = (TransportParameters(initial_max_stream_data=initial)
                  if level == "stream" else
                  TransportParameters(initial_max_data=initial,
                                      initial_max_stream_data=1 << 30))
        sim, client, receiver = upload_pair(params)
        stream_id = client.conn.create_stream()

        def settle(received: int) -> None:
            # Delivered, acknowledged, credit frames acknowledged: quiet.
            assert sim.run_until(
                lambda: stream.bytes_received == received and all(
                    c.paths[0].cc.bytes_in_flight == 0
                    for c in (client.conn, receiver)), timeout=30)

        def limit() -> int:
            """The receiver's limit, as an offset of this stream."""
            if level == "stream":
                return stream.max_stream_data
            return (stream.bytes_received + receiver.max_data_local
                    - receiver.data_received)

        def jump_to(end: int) -> None:
            # Well-behaved data never overruns a limit renewed as it
            # arrives; a peer must jump past it with one frame.
            client.conn.protoops.run(
                client.conn, "queue_control_frame", None,
                F.StreamFrame(stream_id=stream_id, offset=end - 1, data=b"!"))
            client.pump()

        client.conn.send_stream_data(stream_id, bytes(3_000_000))
        client.pump()
        assert sim.run_until(lambda: stream_id in receiver.streams_recv,
                             timeout=5)
        stream = receiver.streams_recv[stream_id]
        settle(3_000_000)
        window = stream.window if level == "stream" else receiver._data_window
        assert window.size > initial
        end = limit()
        assert end > 3_000_000 + initial  # beyond what the fixed window allowed
        jump_to(end)
        settle(end)
        assert receiver.close_error is None
        jump_to(limit() + 1)
        assert sim.run_until(lambda: receiver.close_error is not None,
                             timeout=5)
        assert receiver.close_error[0] == TransportErrorCode.FLOW_CONTROL_ERROR
