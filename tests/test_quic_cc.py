"""NewReno congestion controller tests."""

from repro.core.protoop import Anchor
from repro.quic import QuicConfiguration
from repro.quic.cc import (
    DEFAULT_INITIAL_WINDOW,
    MAX_DATAGRAM_SIZE,
    MINIMUM_WINDOW,
    NewRenoController,
)
from repro.quic.connection import QuicConnection
from repro.quic.recovery import SentPacket


def test_paper_default_initial_window_is_16kb():
    # §4.3: "the default one of PQUIC (16 kB)".
    assert DEFAULT_INITIAL_WINDOW == 16 * 1024
    assert NewRenoController().cwnd == 16 * 1024


def test_custom_initial_window():
    # Figure 9's mp-quic baseline uses 32 kB.
    cc = NewRenoController(initial_window=32 * 1024)
    assert cc.cwnd == 32 * 1024


def test_bytes_in_flight_accounting():
    # Flight is the host's bookkeeping: charged on send, released once
    # per acked or lost packet; the controller's on_ack / on_loss only
    # move the window.
    cc = NewRenoController()
    cc.on_packet_sent(1200)
    cc.on_packet_sent(1200)
    assert cc.bytes_in_flight == 2400
    assert cc.available_window == cc.cwnd - 2400
    cc.on_ack(1200, now=1.0, sent_time=0.5)
    cc.on_loss(1200, now=1.0, sent_time=0.6)
    assert cc.bytes_in_flight == 2400
    cc.on_packet_released(1200)
    assert cc.bytes_in_flight == 1200


def test_slow_start_doubles_per_rtt():
    cc = NewRenoController()
    start = cc.cwnd
    # ACK a full window worth of data in slow start.
    sent = 0
    while sent < start:
        cc.on_packet_sent(1200)
        sent += 1200
    acked = 0
    while acked < start:
        cc.on_ack(1200, now=1.0, sent_time=0.5)
        acked += 1200
    assert cc.cwnd >= 2 * start


def test_loss_halves_window_and_sets_ssthresh():
    cc = NewRenoController()
    cc.cwnd = 100_000
    cc.on_packet_sent(1200)
    cc.on_loss(1200, now=1.0, sent_time=0.5)
    assert cc.cwnd == 50_000
    assert cc.ssthresh == 50_000
    assert not cc.in_slow_start


def test_single_reduction_per_loss_epoch():
    cc = NewRenoController()
    cc.cwnd = 100_000
    for _ in range(5):
        cc.on_packet_sent(1200)
    cc.on_loss(1200, now=1.0, sent_time=0.5)
    w = cc.cwnd
    # Further losses of packets sent before recovery began: no extra cut.
    cc.on_loss(1200, now=1.1, sent_time=0.6)
    cc.on_loss(1200, now=1.2, sent_time=0.9)
    assert cc.cwnd == w
    # A loss of a packet sent after recovery start cuts again.
    cc.on_packet_sent(1200)
    cc.on_loss(1200, now=2.0, sent_time=1.5)
    assert cc.cwnd == w // 2


def test_window_floor():
    cc = NewRenoController()
    for i in range(20):
        cc.on_packet_sent(1200)
        cc.on_loss(1200, now=float(i), sent_time=float(i) - 0.1)
    assert cc.cwnd >= MINIMUM_WINDOW


def test_congestion_avoidance_linear_growth():
    # Byte counting (RFC 3465-style): one MSS of growth per cwnd of
    # bytes acknowledged — +1 MSS per RTT on a saturated path.
    cc = NewRenoController()
    cc.cwnd = 48_000
    cc.ssthresh = 24_000  # in congestion avoidance
    before = cc.cwnd
    acked = 0
    while acked < before:
        cc.on_packet_sent(1200)
        cc.on_ack(1200, now=1.0, sent_time=0.5)
        acked += 1200
    assert cc.cwnd == before + MAX_DATAGRAM_SIZE


def test_congestion_avoidance_grows_on_small_acks():
    # Regression: the old `MSS * size // cwnd` increment rounds to zero
    # for small ACKed sizes at large cwnd, freezing growth forever.  The
    # byte accumulator must keep the window growing monotonically.
    cc = NewRenoController()
    cc.cwnd = 200_000
    cc.ssthresh = 100_000  # in congestion avoidance
    assert MAX_DATAGRAM_SIZE * 64 // cc.cwnd == 0  # the old bug's shape
    start = cc.cwnd
    last = cc.cwnd
    for _ in range(2 * (cc.cwnd // 64) + 64):
        cc.on_packet_sent(64)
        cc.on_ack(64, now=1.0, sent_time=0.5)
        assert cc.cwnd >= last  # monotone, never shrinks
        last = cc.cwnd
    assert cc.cwnd >= start + 2 * MAX_DATAGRAM_SIZE


def test_persistent_congestion_collapses_to_minimum():
    cc = NewRenoController()
    cc.cwnd = 100_000
    cc.ssthresh = 50_000
    cc.on_persistent_congestion()
    assert cc.cwnd == MINIMUM_WINDOW
    assert cc.in_slow_start is (MINIMUM_WINDOW < cc.ssthresh)


def test_spurious_loss_undoes_reduction():
    cc = NewRenoController()
    cc.cwnd = 100_000
    cc.on_packet_sent(1200)
    cc.on_loss(1200, now=1.0, sent_time=0.5)
    assert cc.cwnd == 50_000
    # The one loss of the epoch turns out spurious: full undo.
    cc.on_spurious_loss(1200, lost_time=1.0, sent_time=0.5)
    assert cc.cwnd == 100_000
    assert cc.ssthresh == float("inf")


def test_spurious_loss_no_undo_while_real_losses_remain():
    cc = NewRenoController()
    cc.cwnd = 100_000
    for _ in range(3):
        cc.on_packet_sent(1200)
    cc.on_loss(1200, now=1.0, sent_time=0.5)
    cc.on_loss(1200, now=1.1, sent_time=0.6)  # same epoch: 2 losses
    w = cc.cwnd
    cc.on_spurious_loss(1200, lost_time=1.0, sent_time=0.5)
    assert cc.cwnd == w  # one genuine loss still stands
    cc.on_spurious_loss(1200, lost_time=1.1, sent_time=0.6)
    assert cc.cwnd == 100_000  # every loss of the epoch was spurious


def test_app_limited_ack_does_not_grow_window():
    cc = NewRenoController()
    start = cc.cwnd
    cc.on_packet_sent(1200)
    cc.on_ack(1200, now=1.0, sent_time=0.5, app_limited=True)
    assert cc.cwnd == start
    assert cc.bytes_in_flight == 1200  # released by the host, not on_ack


def test_no_growth_for_pre_recovery_acks():
    cc = NewRenoController()
    cc.on_packet_sent(1200)
    cc.on_packet_sent(1200)
    cc.on_loss(1200, now=1.0, sent_time=0.5)
    w = cc.cwnd
    cc.on_ack(1200, now=1.1, sent_time=0.6)  # sent before recovery start
    assert cc.cwnd == w


def test_can_send_respects_window():
    cc = NewRenoController(initial_window=2400)
    assert cc.available_window == 2400
    cc.on_packet_sent(2400)
    assert cc.available_window == 0
    cc.on_packet_released(1200)
    assert cc.available_window == 1200


def _in_flight_packet(conn, pn, size=1200):
    conn.paths[0].cc.on_packet_sent(size)
    return SentPacket(packet_number=pn, sent_time=0.0, size=size,
                      ack_eliciting=True, in_flight=True)


def test_discard_releases_flight_bytes():
    # The host's on_packet_acked / on_packet_lost defaults release the
    # packet from flight, so a replaced controller that ignores the
    # packet (here: a no-op) still leaves the books balanced.
    conn = QuicConnection(QuicConfiguration(is_client=True))
    for op in ("congestion_on_ack", "congestion_on_loss"):
        conn.protoops.attach(op, Anchor.REPLACE, lambda conn, pkt, i: None)
    cc = conn.paths[0].cc
    for outcome in ("on_packet_acked", "on_packet_lost"):
        first, second = _in_flight_packet(conn, 0), _in_flight_packet(conn, 1)
        assert cc.bytes_in_flight == 2400
        conn.protoops.run(conn, outcome, None, first, 0)
        assert cc.bytes_in_flight == 1200
        cc.bytes_in_flight = 0
        conn.protoops.run(conn, outcome, None, second, 0)
        assert cc.bytes_in_flight == 0  # never negative
