"""RTT estimation, ACK processing and loss detection tests."""

import pytest

from repro.quic.frames import AckFrame
from repro.quic.recovery import (
    K_PACKET_THRESHOLD,
    MAX_LOST_HISTORY,
    MAX_PTO_PROBES,
    AckResult,
    PacketNumberSpace,
    RttEstimator,
    SentPacket,
)
from repro.quic.wire import RangeSet


def sent(pn, t=0.0, size=1200, eliciting=True):
    return SentPacket(packet_number=pn, sent_time=t, size=size,
                      ack_eliciting=eliciting, in_flight=eliciting)


def ack_of(*pns, delay=0.0):
    rs = RangeSet()
    for pn in pns:
        rs.add(pn)
    return AckFrame(ranges=rs, ack_delay=delay)


class TestRttEstimator:
    def test_first_sample_initializes(self):
        rtt = RttEstimator()
        rtt.update(0.2)
        assert rtt.smoothed == pytest.approx(0.2)
        assert rtt.min_rtt == pytest.approx(0.2)
        assert rtt.variance == pytest.approx(0.1)

    def test_ewma_converges(self):
        rtt = RttEstimator()
        for _ in range(100):
            rtt.update(0.05)
        assert rtt.smoothed == pytest.approx(0.05, rel=0.01)
        assert rtt.variance < 0.002

    def test_ack_delay_subtracted_when_above_min(self):
        rtt = RttEstimator()
        rtt.max_ack_delay = 0.1  # negotiated cap above the reported delay
        rtt.update(0.1)
        rtt.update(0.2, ack_delay=0.05)
        # adjusted sample is 0.15
        assert rtt.smoothed == pytest.approx(0.875 * 0.1 + 0.125 * 0.15)

    def test_ack_delay_clamped_to_max_ack_delay(self):
        # RFC 9002 §5.3: the peer may not claim more delay than its
        # negotiated max_ack_delay (default 25 ms).
        rtt = RttEstimator()
        rtt.update(0.1)
        rtt.update(0.2, ack_delay=0.05)
        # adjusted sample is 0.2 - 0.025 = 0.175, not 0.15
        assert rtt.smoothed == pytest.approx(0.875 * 0.1 + 0.125 * 0.175)

    def test_ack_delay_ignored_when_below_min(self):
        rtt = RttEstimator()
        rtt.max_ack_delay = 0.1
        rtt.update(0.1)
        rtt.update(0.11, ack_delay=0.05)  # 0.06 < min_rtt -> keep raw
        assert rtt.smoothed == pytest.approx(0.875 * 0.1 + 0.125 * 0.11)

    def test_nonpositive_sample_ignored(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        rtt.update(0.0)
        assert rtt.samples == 1

    def test_pto_grows_with_variance(self):
        rtt = RttEstimator()
        rtt.update(0.1)
        stable_pto = rtt.pto()
        rtt.update(0.5)
        assert rtt.pto() > stable_pto


class TestAckProcessing:
    def test_simple_ack_removes_packets(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in range(3):
            space.on_packet_sent(sent(pn, t=pn * 0.01))
        result = space.on_ack_received(ack_of(0, 1, 2), now=0.1, rtt=rtt)
        assert [p.packet_number for p in result.newly_acked] == [0, 1, 2]
        assert not space.sent
        assert space.largest_acked == 2

    def test_rtt_sampled_from_largest(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        space.on_packet_sent(sent(0, t=1.0))
        result = space.on_ack_received(ack_of(0), now=1.25, rtt=rtt)
        assert result.latest_rtt == pytest.approx(0.25)
        assert rtt.samples == 1

    def test_no_rtt_sample_when_largest_not_newly_acked(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        space.on_packet_sent(sent(0, t=0.0))
        space.on_ack_received(ack_of(0), now=0.1, rtt=rtt)
        space.on_packet_sent(sent(1, t=0.2))
        result = space.on_ack_received(ack_of(0), now=0.3, rtt=rtt)
        assert result.latest_rtt is None

    def test_packet_threshold_loss(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in range(5):
            space.on_packet_sent(sent(pn, t=0.0))
        # ACK only pn 4: 0 and 1 are >= 3 below the largest acked.
        result = space.on_ack_received(ack_of(4), now=0.01, rtt=rtt)
        lost_pns = [p.packet_number for p in result.lost]
        assert lost_pns == [0, 1]
        assert 2 in space.sent and 3 in space.sent

    def test_time_threshold_loss(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        space.on_packet_sent(sent(0, t=0.0))
        space.on_packet_sent(sent(1, t=1.0))
        result = space.on_ack_received(ack_of(1), now=1.05, rtt=rtt)
        assert [p.packet_number for p in result.lost] == [0]

    def test_loss_time_armed_for_recent_unacked(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        space.on_packet_sent(sent(0, t=1.0))
        space.on_packet_sent(sent(1, t=1.0))
        space.on_ack_received(ack_of(1), now=1.02, rtt=rtt)
        assert space.loss_time is not None
        expected_delay = 9 / 8 * max(rtt.latest, rtt.smoothed)
        assert space.loss_time == pytest.approx(1.0 + expected_delay)

    def test_duplicate_ack_is_noop(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        space.on_packet_sent(sent(0))
        space.on_ack_received(ack_of(0), now=0.1, rtt=rtt)
        result = space.on_ack_received(ack_of(0), now=0.2, rtt=rtt)
        assert result.newly_acked == []


class TestReceiveTracking:
    def test_record_and_ack_frame(self):
        space = PacketNumberSpace()
        assert space.record_received(0, now=1.0, ack_eliciting=True)
        assert space.record_received(1, now=1.1, ack_eliciting=True)
        assert space.ack_needed
        frame = space.ack_frame(now=1.2)
        assert frame.ranges == RangeSet([range(0, 2)])
        # The 0.1 s of real delay is clamped to the advertised
        # max_ack_delay: we may never report more than we negotiated.
        assert frame.ack_delay == pytest.approx(0.025)

    def test_ack_delay_below_max_reported_exactly(self):
        space = PacketNumberSpace()
        space.record_received(0, now=1.0, ack_eliciting=True)
        frame = space.ack_frame(now=1.01)
        assert frame.ack_delay == pytest.approx(0.01)

    def test_ack_delay_clamped_to_custom_max(self):
        space = PacketNumberSpace()
        space.record_received(0, now=1.0, ack_eliciting=True)
        frame = space.ack_frame(now=2.0, max_ack_delay=0.1)
        assert frame.ack_delay == pytest.approx(0.1)

    def test_duplicate_detection(self):
        space = PacketNumberSpace()
        assert space.record_received(5, 0.0, True)
        assert not space.record_received(5, 0.1, True)

    def test_non_eliciting_does_not_set_ack_needed(self):
        space = PacketNumberSpace()
        space.record_received(0, 0.0, ack_eliciting=False)
        assert not space.ack_needed

    def test_ack_frame_empty_space(self):
        assert PacketNumberSpace().ack_frame(0.0) is None

    def test_ack_frame_caps_ranges(self):
        space = PacketNumberSpace()
        for pn in range(0, 200, 2):  # 100 disjoint ranges
            space.record_received(pn, 0.0, True)
        frame = space.ack_frame(0.0)
        assert len(frame.ranges) <= 32
        assert frame.ranges.largest() == 198


class TestAckOfAckPruning:
    def test_received_pruned_after_ack_of_ack(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in list(range(10)) + list(range(20, 30)):
            space.record_received(pn, now=0.0, ack_eliciting=True)
        # Packet 0 carried an ACK reporting everything up to 29: the old
        # range 0-9 is provably seen; the range containing the bound is
        # kept whole so the reported tail never changes.
        space.on_packet_sent(sent(0))
        space.sent[0].largest_ack_reported = 29
        space.on_ack_received(ack_of(0), now=0.1, rtt=rtt)
        assert list(space.received) == [range(20, 30)]

    def test_straddled_range_kept_whole(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in range(10):
            space.record_received(pn, now=0.0, ack_eliciting=True)
        space.on_packet_sent(sent(0))
        space.sent[0].largest_ack_reported = 5
        space.on_ack_received(ack_of(0), now=0.1, rtt=rtt)
        # The range containing 5 survives whole so the next ACK frame
        # still reports a tail identical to the unpruned one.
        assert list(space.received) == [range(0, 10)]

    def test_ack_frame_tail_identical_after_pruning(self):
        pruned, unpruned = PacketNumberSpace(), PacketNumberSpace()
        rtt = RttEstimator()
        for space in (pruned, unpruned):
            for pn in list(range(0, 20)) + list(range(30, 40)):
                space.record_received(pn, now=0.0, ack_eliciting=True)
        pruned.on_packet_sent(sent(0))
        pruned.sent[0].largest_ack_reported = 39
        pruned.on_ack_received(ack_of(0), now=0.1, rtt=rtt)
        assert list(pruned.received) == [range(30, 40)]
        # Everything the pruned frame reports, the unpruned frame
        # reports identically: pruning only drops the provably-seen head.
        f_pruned = pruned.ack_frame(now=0.2)
        f_unpruned = unpruned.ack_frame(now=0.2)
        assert list(f_pruned.ranges) == list(f_unpruned.ranges)[-1:]
        assert f_pruned.ranges.largest() == f_unpruned.ranges.largest()

    def test_no_pruning_without_ack_carrying_packets(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in range(5):
            space.record_received(pn, now=0.0, ack_eliciting=True)
        space.on_packet_sent(sent(0))  # default: no ACK frame inside
        space.on_ack_received(ack_of(0), now=0.1, rtt=rtt)
        assert list(space.received) == [range(0, 5)]

    def test_release_clears_tracking_state(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        space.on_packet_sent(sent(0))
        space.on_packet_sent(sent(1))
        space.record_received(7, now=0.0, ack_eliciting=True)
        space.on_ack_received(ack_of(1), now=0.1, rtt=rtt)
        assert space.loss_time is not None or space.sent
        space.release()
        assert not space.sent
        assert list(space.received) == []
        assert space.loss_time is None
        assert not space.ack_needed


class TestLossTimerProgress:
    def test_loss_time_never_rearms_at_or_before_now(self):
        """Regression: floating-point error could re-arm loss_time at
        exactly `now`, spinning the event loop at a single instant."""
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        loss_delay = 9 / 8 * 0.1
        # A packet whose loss deadline lands exactly on `now`: it must be
        # declared lost, never deferred to a loss_time equal to `now`.
        space.on_packet_sent(sent(0, t=1.0))
        space.largest_acked = 1
        lost = space.detect_lost(now=1.0 + loss_delay, rtt=rtt)
        assert [p.packet_number for p in lost] == [0]
        assert space.loss_time is None

    def test_timer_loop_terminates_under_loss(self):
        """End-to-end regression for the same bug: a lossy transfer that
        previously looped forever at one simulated instant."""
        import time

        from repro.conformance import (
            Scenario,
            Topology,
            Workload,
            run_transfer,
        )

        t0 = time.time()
        result = run_transfer(Scenario(
            name="lossy", workload=Workload(size=100_000, app="bulk"),
            topology=Topology(d_ms=10, bw_mbps=10, loss_pct=5), seed=6))
        assert result.completed
        assert time.time() - t0 < 30


class TestPto:
    def test_pto_deadline_none_when_nothing_outstanding(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        assert space.pto_deadline(rtt, 0) is None

    def test_pto_deadline_set_after_send(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        space.on_packet_sent(sent(0, t=2.0))
        deadline = space.pto_deadline(rtt, 0)
        assert deadline == pytest.approx(2.0 + rtt.pto())

    def test_initial_space_pto_leaves_out_max_ack_delay(self):
        """RFC 9002 §6.2.1: the peer never delays Initial ACKs, so only
        a space with delayed ACKs waits out its max_ack_delay."""
        rtt = RttEstimator()
        rtt.update(0.1)
        rtt.max_ack_delay = 0.04
        initial = PacketNumberSpace(delayed_acks=False)
        one_rtt = PacketNumberSpace()
        for space in (initial, one_rtt):
            space.on_packet_sent(sent(0, t=2.0))
        base = rtt.smoothed + 4 * rtt.variance
        assert initial.pto_deadline(rtt, 0) == pytest.approx(2.0 + base)
        assert one_rtt.pto_deadline(rtt, 0) == pytest.approx(2.0 + base + 0.04)
        assert initial.pto_deadline(rtt, 2) == pytest.approx(2.0 + 4 * base)

    def test_pto_backoff_doubles(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        space.on_packet_sent(sent(0, t=0.0))
        d0 = space.pto_deadline(rtt, 0)
        d1 = space.pto_deadline(rtt, 1)
        assert d1 == pytest.approx(2 * d0)

    def test_pto_armed_only_while_something_ack_eliciting_is_in_flight(self):
        """``ack_eliciting_in_flight`` follows ``sent`` through every way
        a packet leaves it: ACK-only packets never arm the PTO, and the
        alarm clears when the last ack-eliciting packet is acked, lost,
        or released."""
        rtt = RttEstimator()
        space = PacketNumberSpace()
        space.on_packet_sent(sent(0, eliciting=False))
        assert space.ack_eliciting_in_flight == 0
        assert space.next_timer(rtt, 0) is None
        space.on_packet_sent(sent(1, t=1.09))
        space.on_packet_sent(sent(2, t=1.1))
        assert space.ack_eliciting_in_flight == 2
        assert space.next_timer(rtt, 0) == space.pto_deadline(rtt, 0)
        space.on_ack_received(ack_of(2), now=1.2, rtt=rtt)
        assert space.ack_eliciting_in_flight == 1  # pn 1 waits on loss_time
        assert space.next_timer(rtt, 0) == space.loss_time
        assert [p.packet_number for p in space.detect_lost(9.0, rtt)] == [1]
        assert space.ack_eliciting_in_flight == 0
        assert space.next_timer(rtt, 0) is None
        space = PacketNumberSpace()
        space.on_packet_sent(sent(0))
        space.release()
        assert space.ack_eliciting_in_flight == 0
        assert space.pto_deadline(rtt, 0) is None

    def test_probe_candidates_oldest_eliciting_first(self):
        space = PacketNumberSpace()
        for pn in range(4):
            space.on_packet_sent(sent(pn, t=float(pn)))
        probes = space.probe_candidates()
        # Oldest two ack-eliciting packets, nothing removed from flight.
        assert [p.packet_number for p in probes] == [0, 1]
        assert len(space.sent) == 4

    def test_probe_candidates_skip_non_eliciting(self):
        space = PacketNumberSpace()
        space.on_packet_sent(
            SentPacket(packet_number=0, sent_time=0.0, size=100,
                       ack_eliciting=False, in_flight=False))
        space.on_packet_sent(sent(1, t=1.0))
        probes = space.probe_candidates()
        assert [p.packet_number for p in probes] == [1]

    def test_probe_candidates_respects_cap(self):
        space = PacketNumberSpace()
        for pn in range(5):
            space.on_packet_sent(sent(pn))
        assert len(space.probe_candidates(max_probes=1)) == 1
        assert len(space.probe_candidates()) == MAX_PTO_PROBES


class TestSpuriousLoss:
    def test_late_ack_of_declared_lost_packet_is_spurious(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in range(5):
            space.on_packet_sent(sent(pn, t=0.1 * pn))
        # Acking 4 declares the rest lost (packet + time thresholds).
        result = space.on_ack_received(ack_of(4), now=1.0, rtt=rtt)
        lost_pns = [p.packet_number for p in result.lost]
        assert 0 in lost_pns
        assert not result.spurious
        # The "lost" packet's ACK then arrives late: spurious.
        result = space.on_ack_received(ack_of(0), now=1.1, rtt=rtt)
        assert [p.packet_number for p in result.spurious] == [0]
        assert result.newly_acked == []
        assert 0 not in space.lost_packets
        assert result.spurious[0].lost_time == pytest.approx(1.0)

    def test_spurious_reported_once(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        for pn in range(5):
            space.on_packet_sent(sent(pn, t=0.1 * pn))
        space.on_ack_received(ack_of(4), now=1.0, rtt=rtt)
        first = space.on_ack_received(ack_of(0), now=1.1, rtt=rtt)
        again = space.on_ack_received(ack_of(0), now=1.2, rtt=rtt)
        assert len(first.spurious) == 1
        assert not again.spurious

    def test_lost_history_bounded(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.01)
        n = MAX_LOST_HISTORY + 64
        for pn in range(n + 1):
            space.on_packet_sent(sent(pn, t=0.0))
        space.on_ack_received(ack_of(n), now=100.0, rtt=rtt)
        assert len(space.lost_packets) <= MAX_LOST_HISTORY


class TestPersistentCongestion:
    def _lose_all(self, space, rtt, largest):
        """Ack only `largest`, declaring everything below it lost."""
        return space.on_ack_received(ack_of(largest), now=100.0, rtt=rtt)

    def test_duration_spanning_run_detected(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        duration = rtt.pto() * 3
        for pn in range(4):
            space.on_packet_sent(sent(pn, t=pn * duration / 2))
        space.on_packet_sent(sent(4, t=99.0))
        result = self._lose_all(space, rtt, 4)
        assert len(result.lost) == 4
        assert space.persistent_congestion(result.lost, duration)

    def test_short_run_not_persistent(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        duration = rtt.pto() * 3
        # All losses inside one duration window: not persistent.
        for pn in range(4):
            space.on_packet_sent(sent(pn, t=pn * duration / 8))
        space.on_packet_sent(sent(4, t=99.0))
        result = self._lose_all(space, rtt, 4)
        assert not space.persistent_congestion(result.lost, duration)

    def test_acked_packet_breaks_run(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        duration = rtt.pto() * 3
        for pn in range(5):
            space.on_packet_sent(sent(pn, t=pn * duration / 2))
        space.on_packet_sent(sent(5, t=99.0))
        # Packet 2 is delivered: it splits the loss run in two halves,
        # neither of which spans the duration on its own.
        ack = AckFrame(ranges=RangeSet([range(2, 3), range(5, 6)]))
        result = space.on_ack_received(ack, now=100.0, rtt=rtt)
        assert [p.packet_number for p in result.lost] == [0, 1, 3, 4]
        assert not space.persistent_congestion(result.lost, duration)

    def test_single_loss_never_persistent(self):
        space = PacketNumberSpace()
        rtt = RttEstimator()
        rtt.update(0.1)
        space.on_packet_sent(sent(0, t=0.0))
        space.on_packet_sent(sent(1, t=99.0))
        result = self._lose_all(space, rtt, 1)
        assert not space.persistent_congestion(result.lost, rtt.pto() * 3)
