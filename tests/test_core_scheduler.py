"""Frame scheduler tests: CBQ core guarantee + DRR fairness (§2.3)."""

import pytest

from repro.core.scheduler import DRR_QUANTUM, _drr_fill, schedule_packet_frames
from repro.quic import QuicConfiguration, ReservedFrame
from repro.quic import frames as F
from repro.quic.connection import QuicConnection
from repro.quic.packet import Epoch


def make_established_conn():
    conn = QuicConnection(QuicConfiguration(is_client=True))
    from repro.quic.crypto import CryptoPair

    conn.crypto[Epoch.ONE_RTT] = CryptoPair(b"k" * 32, b"k" * 32)
    conn.handshake_complete = True
    conn.max_data_remote = 1 << 30
    return conn


def ping_reservation(plugin, size=0):
    # A PING frame padded via datagram-ish payload: use CRYPTO-like filler.
    frame = F.StreamFrame(stream_id=0, offset=0, data=b"p" * max(1, size))
    return ReservedFrame(frame=frame, plugin=plugin)


class TestCoreGuarantee:
    def test_plugins_cannot_starve_application_data(self):
        """Rule 1: while payload data is pending, core frames keep at
        least the guaranteed fraction of the packet budget."""
        conn = make_established_conn()
        sid = conn.create_stream()
        conn.send_stream_data(sid, b"a" * 10_000)
        # A greedy plugin floods reservations.
        for _ in range(50):
            conn.reserved_frames.append(ping_reservation("greedy", 400))
        frames, ack_only = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        stream_bytes = sum(
            len(f.data) for f in frames
            if isinstance(f, F.StreamFrame) and f.stream_id == sid
        )
        assert stream_bytes >= 400  # roughly half the budget net of headers
        assert not ack_only

    def test_unused_core_budget_flows_to_plugins(self):
        conn = make_established_conn()
        for _ in range(10):
            conn.reserved_frames.append(ping_reservation("solo", 300))
        frames, _ = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        plugin_bytes = sum(len(f.to_bytes()) for f in frames)
        assert plugin_bytes > 600  # no core pending: plugins get it all

    def test_ack_always_first(self):
        conn = make_established_conn()
        conn.paths[0].space.record_received(0, 0.0, True)
        frames, ack_only = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        assert isinstance(frames[0], F.AckFrame)
        assert ack_only  # nothing else pending

    def test_congestion_window_blocks_data_not_acks(self):
        conn = make_established_conn()
        conn.paths[0].cc.bytes_in_flight = conn.paths[0].cc.cwnd  # full
        sid = conn.create_stream()
        conn.send_stream_data(sid, b"a" * 5000)
        conn.paths[0].space.record_received(0, 0.0, True)
        frames, ack_only = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        assert ack_only
        assert all(isinstance(f, F.AckFrame) for f in frames)

    def test_non_congestion_controlled_reservations_bypass_window(self):
        conn = make_established_conn()
        conn.paths[0].cc.bytes_in_flight = conn.paths[0].cc.cwnd
        conn.reserved_frames.append(ReservedFrame(
            frame=F.PingFrame(), plugin="p", congestion_controlled=False))
        frames, _ = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        assert any(isinstance(f, F.PingFrame) for f in frames)


class TestStreamSelection:
    def test_first_created_stream_with_data_goes_first(self):
        conn = make_established_conn()
        first, second = conn.create_stream(), conn.create_stream()
        conn.send_stream_data(second, b"b" * 100)
        conn.send_stream_data(first, b"a" * 100)
        frames, _ = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        assert [f.stream_id for f in frames] == [first, second]

    def test_replaced_stream_to_send_naming_a_retired_half(self):
        """A plugin's ``stream_to_send`` may lag behind retirement; the
        scheduler stops filling instead of raising."""
        from repro.core.protoop import Anchor

        conn = make_established_conn()
        conn.protoops.attach("stream_to_send", Anchor.REPLACE,
                             lambda conn: 8)
        conn.closed_streams_send[0].add(2)
        frames, ack_only = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
        assert frames == [] and ack_only
        assert 8 not in conn.streams_send


class TestDrr:
    def test_two_plugins_share_fairly(self):
        """Rule 2: 'a plugin sending many large frames should not be able
        to starve other plugins' — deficit round robin."""
        conn = make_established_conn()
        for _ in range(40):
            conn.reserved_frames.append(ping_reservation("big", 500))
        for _ in range(40):
            conn.reserved_frames.append(ping_reservation("small", 100))
        sent = {"big": 0, "small": 0}
        for _ in range(12):  # schedule a dozen packets
            frames, _ = schedule_packet_frames(conn, Epoch.ONE_RTT, 0, 1200)
            if not frames:
                break
            conn.paths[0].cc.bytes_in_flight = 0  # refill window
            for f in frames:
                size = len(f.to_bytes())
                if isinstance(f, F.StreamFrame) and len(f.data) >= 400:
                    sent["big"] += size
                elif isinstance(f, F.StreamFrame):
                    sent["small"] += size
        assert sent["big"] > 0 and sent["small"] > 0
        ratio = sent["big"] / max(1, sent["small"])
        assert 0.4 < ratio < 2.5  # byte-fair within DRR quantum effects

    def test_drr_preserves_per_plugin_fifo(self):
        conn = make_established_conn()
        for i in range(5):
            frame = F.StreamFrame(stream_id=0, offset=i, data=bytes([i]))
            conn.reserved_frames.append(ReservedFrame(frame=frame, plugin="p"))
        used, picked = _drr_fill(conn, 10_000)
        offsets = [f.offset for f in picked]
        assert offsets == sorted(offsets)

    def test_oversized_frame_does_not_wedge_queue(self):
        conn = make_established_conn()
        conn.reserved_frames.append(ping_reservation("p", 5000))  # > budget
        conn.reserved_frames.append(ping_reservation("q", 100))
        used, picked = _drr_fill(conn, 1200)
        # The small frame still goes out even though the big one can't.
        assert any(len(f.data) == 100 for f in picked)
