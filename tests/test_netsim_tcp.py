"""TCP Cubic model tests."""

import pytest

from repro.netsim import Simulator, symmetric_topology
from repro.netsim.tcp import (
    CUBIC_BETA,
    CubicWindow,
    Segment,
    TcpBulkTransfer,
    TcpSender,
    FLAG_ACK,
    FLAG_FIN,
    FLAG_SYN,
)


class TestSegment:
    def test_roundtrip(self):
        seg = Segment(seq=1000, ack=2000, flags=FLAG_ACK | FLAG_FIN,
                      data=b"payload")
        parsed = Segment.decode(seg.encode())
        assert (parsed.seq, parsed.ack) == (1000, 2000)
        assert parsed.flags & FLAG_ACK and parsed.flags & FLAG_FIN
        assert parsed.data == b"payload"

    def test_sack_blocks_roundtrip(self):
        seg = Segment(ack=5, flags=FLAG_ACK,
                      sacks=[(10, 20), (40, 55), (100, 101)])
        parsed = Segment.decode(seg.encode())
        assert parsed.sacks == [(10, 20), (40, 55), (100, 101)]
        assert parsed.data == b""

    def test_header_overhead_is_40_bytes(self):
        assert Segment(data=b"").size == 40
        assert Segment(data=b"x" * 100).size == 140


class TestCubicWindow:
    def test_slow_start_doubles(self):
        win = CubicWindow(mss=1000)
        start = win.cwnd
        win.on_ack(int(start), now=1.0, rtt=0.1)
        assert win.cwnd == pytest.approx(2 * start)

    def test_loss_multiplies_by_beta(self):
        win = CubicWindow(mss=1000)
        win.cwnd = 100_000
        win.on_loss()
        assert win.cwnd == pytest.approx(100_000 * CUBIC_BETA)
        assert not win.in_slow_start

    def test_timeout_resets_to_one_mss(self):
        win = CubicWindow(mss=1000)
        win.cwnd = 50_000
        win.on_timeout()
        assert win.cwnd == 1000

    def test_cubic_growth_accelerates_past_wmax(self):
        win = CubicWindow(mss=1000)
        win.cwnd = 50_000
        win.on_loss()  # sets w_max, leaves slow start
        growth = []
        now = 0.0
        for _ in range(100):
            before = win.cwnd
            win.on_ack(1000, now=now, rtt=0.05)
            growth.append(win.cwnd - before)
            now += 0.01
        # Concave then convex: late growth exceeds mid growth.
        assert win.cwnd > 35_000

    def test_floor_two_mss(self):
        win = CubicWindow(mss=1000)
        for _ in range(20):
            win.on_loss()
        assert win.cwnd >= 2000


def run_flow(size, loss=0, d_ms=10, bw=20, seed=1, buffer_bytes=200_000,
             timeout=120):
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=d_ms, bw_mbps=bw, loss_pct=loss,
                              seed=seed, buffer_bytes=buffer_bytes)
    flow = TcpBulkTransfer(sim, size)
    flow.wire(
        lambda seg: topo.client.sendto(seg, "client.0", 1, "server.0", 2),
        lambda seg: topo.server.sendto(seg, "server.0", 2, "client.0", 1),
    )
    topo.client.bind(1, lambda d: flow.sender.on_segment(d.payload))
    topo.server.bind(2, lambda d: flow.receiver.on_segment(d.payload))
    flow.start()
    sim.run_until(lambda: flow.completed, timeout=timeout)
    return flow, sim


class TestBulkTransfer:
    def test_small_transfer_completes(self):
        flow, sim = run_flow(5_000)
        assert flow.completed
        assert flow.receiver.finished
        assert flow.receiver.bytes_received == 5_000

    def test_dct_includes_handshake_rtt(self):
        flow, sim = run_flow(1_000, d_ms=50, bw=100)
        # SYN/SYNACK (1 RTT) + data (1 RTT-ish).
        assert 0.2 < flow.dct < 0.35

    def test_large_transfer_near_link_rate(self):
        flow, sim = run_flow(5_000_000, bw=20)
        ideal = 5_000_000 * 8 / 20e6
        assert flow.completed
        assert flow.dct < 1.8 * ideal

    def test_transfer_with_random_loss(self):
        flow, sim = run_flow(500_000, loss=2, seed=5, timeout=300)
        assert flow.completed
        assert flow.sender.retransmissions > 0

    def test_transfer_through_tiny_buffer(self):
        flow, sim = run_flow(500_000, buffer_bytes=20_000, timeout=300)
        assert flow.completed

    def test_heavy_loss_still_completes(self):
        flow, sim = run_flow(100_000, loss=10, seed=7, timeout=600)
        assert flow.completed

    def test_rto_recovers_from_total_blackout(self):
        """Drop everything for a while, then heal: RTO must recover."""
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20,
                                  buffer_bytes=200_000)
        blackout = {"on": False}
        flow = TcpBulkTransfer(sim, 50_000)

        def send_c(seg):
            if not blackout["on"]:
                topo.client.sendto(seg, "client.0", 1, "server.0", 2)

        flow.wire(send_c,
                  lambda seg: topo.server.sendto(seg, "server.0", 2,
                                                 "client.0", 1))
        topo.client.bind(1, lambda d: flow.sender.on_segment(d.payload))
        topo.server.bind(2, lambda d: flow.receiver.on_segment(d.payload))
        flow.start()
        sim.run(until=0.05)
        blackout["on"] = True
        sim.run(until=1.0)
        blackout["on"] = False
        assert sim.run_until(lambda: flow.completed, timeout=120)

    def test_mss_respected(self):
        sizes = []
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=50,
                                  buffer_bytes=500_000)
        flow = TcpBulkTransfer(sim, 100_000, mss=700)

        def send_c(seg):
            sizes.append(len(Segment.decode(seg).data))
            topo.client.sendto(seg, "client.0", 1, "server.0", 2)

        flow.wire(send_c,
                  lambda seg: topo.server.sendto(seg, "server.0", 2,
                                                 "client.0", 1))
        topo.client.bind(1, lambda d: flow.sender.on_segment(d.payload))
        topo.server.bind(2, lambda d: flow.receiver.on_segment(d.payload))
        flow.start()
        assert sim.run_until(lambda: flow.completed, timeout=60)
        assert max(sizes) <= 700


class TestRetransmissionTimeout:
    def test_one_rto_repairs_every_hole(self, monkeypatch):
        """RFC 6675 §5.1: after an RTO, RecoveryPoint = HighData and every
        un-SACKed segment below it is retransmitted as the ACKs of the
        repairs return; Linux ``tcp_enter_loss`` marks them all lost.  A
        flight that loses segments 0, 2 and 4 of five, with too little
        data behind them for three duplicate ACKs, is therefore repaired
        after one RTO — not one RTO per hole."""
        rtos = []
        on_rto = TcpSender._on_rto

        def counted(sender):
            rtos.append(sender.sim.now)
            on_rto(sender)

        monkeypatch.setattr(TcpSender, "_on_rto", counted)
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=10, bw_mbps=20,
                                  buffer_bytes=200_000)
        flow = TcpBulkTransfer(sim, 5 * 1000, mss=1000)
        dropped = {0, 2000, 4000}

        def send_c(seg):
            parsed = Segment.decode(seg)
            if parsed.data and parsed.seq in dropped:
                dropped.discard(parsed.seq)  # first transmission only
                return
            topo.client.sendto(seg, "client.0", 1, "server.0", 2)

        flow.wire(send_c,
                  lambda seg: topo.server.sendto(seg, "server.0", 2,
                                                 "client.0", 1))
        topo.client.bind(1, lambda d: flow.sender.on_segment(d.payload))
        topo.server.bind(2, lambda d: flow.receiver.on_segment(d.payload))
        flow.start()
        assert sim.run_until(lambda: flow.completed, timeout=60)
        assert not dropped
        assert len(rtos) == 1
        assert flow.sender.retransmissions == 3
        assert flow.receiver.bytes_received == 5 * 1000
