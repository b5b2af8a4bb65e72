"""Loss recovery: RTT estimation, sent-packet tracking, loss detection.

This is the machinery the paper's protoops wrap: ``update_rtt``,
``process_frame[ACK]``, ``set_loss_alarm``, retransmission decisions — all
exposed as pluggable operations by the connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .frames import AckFrame, Frame
from .wire import RangeSet

K_GRANULARITY = 0.001  # 1 ms
K_PACKET_THRESHOLD = 3
K_TIME_THRESHOLD = 9 / 8
K_INITIAL_RTT = 0.1
#: RFC 9002 §7.6.1: persistent congestion needs a run of losses spanning
#: this many PTO periods with no delivery in between.
K_PERSISTENT_CONGESTION_THRESHOLD = 3
MAX_ACK_DELAY = 0.025
#: ACK frames report at most this many of the highest received ranges.
MAX_ACK_RANGES = 32
#: RFC 9002 §6.2.4: a PTO expiry elicits at most this many probe packets.
MAX_PTO_PROBES = 2
#: Declared-lost packets remembered for spurious-loss detection (§6.1's
#: "packets ACKed after being declared lost"); bounds send-side state.
MAX_LOST_HISTORY = 4096


class RttEstimator:
    """Smoothed RTT / variance per RFC 9002 §5."""

    def __init__(self, initial_rtt: float = K_INITIAL_RTT):
        self.latest: float = 0.0
        self.min_rtt: float = float("inf")
        self.smoothed: float = initial_rtt
        self.variance: float = initial_rtt / 2
        self.samples = 0
        #: The peer's negotiated ``max_ack_delay`` transport parameter;
        #: caps the ack_delay it may subtract from samples (RFC 9002
        #: §5.3) and bounds the PTO slack.
        self.max_ack_delay = MAX_ACK_DELAY

    def update(self, latest: float, ack_delay: float = 0.0) -> None:
        if latest <= 0:
            return
        self.latest = latest
        self.samples += 1
        if self.samples == 1:
            self.min_rtt = latest
            self.smoothed = latest
            self.variance = latest / 2
            return
        self.min_rtt = min(self.min_rtt, latest)
        # RFC 9002 §5.3: a peer may not claim more delay than it
        # negotiated — unclamped, a misbehaving peer reporting huge
        # ack_delays would drag smoothed RTT toward min_rtt and mask
        # real queueing.
        ack_delay = min(ack_delay, self.max_ack_delay)
        adjusted = latest
        if latest - ack_delay >= self.min_rtt:
            adjusted = latest - ack_delay
        self.variance = 0.75 * self.variance + 0.25 * abs(self.smoothed - adjusted)
        self.smoothed = 0.875 * self.smoothed + 0.125 * adjusted

    def pto(self) -> float:
        return self.smoothed + max(4 * self.variance, K_GRANULARITY) + self.max_ack_delay


@dataclass
class SentPacket:
    """Bookkeeping for one sent, possibly-retransmittable packet."""

    packet_number: int
    sent_time: float
    size: int
    ack_eliciting: bool
    in_flight: bool
    frames: list = field(default_factory=list)
    path_id: int = 0
    #: Largest received packet number this packet's ACK frame reported,
    #: or -1 if it carried no ACK.  When the peer acks this packet it
    #: has provably seen that ACK, so received ranges at or below the
    #: bound can be pruned (they will never need re-reporting).
    largest_ack_reported: int = -1
    #: When loss detection declared this packet lost, or -1.0 while it is
    #: still outstanding.  A later ACK of a packet with lost_time >= 0 is
    #: a spurious loss (the congestion response can be undone).
    lost_time: float = -1.0
    #: RFC 9002 §7.8: True when this packet left with the congestion
    #: window still open and nothing more to send — the application, not
    #: congestion, was the bottleneck, so its ACK must not grow cwnd.
    app_limited: bool = False


@dataclass
class AckResult:
    """Outcome of processing one ACK frame."""

    newly_acked: list = field(default_factory=list)
    lost: list = field(default_factory=list)
    #: Packets previously declared lost that this ACK now acknowledges:
    #: the loss (and any congestion reduction it caused) was spurious.
    spurious: list = field(default_factory=list)
    latest_rtt: Optional[float] = None


class PacketNumberSpace:
    """Send/receive state for one packet-number space (or one path)."""

    def __init__(self) -> None:
        # Send side.
        self.next_packet_number = 0
        self.sent: dict[int, SentPacket] = {}
        #: Ack-eliciting packets in ``sent``, kept in step wherever a
        #: packet enters or leaves it: the PTO alarm is armed iff > 0.
        self.ack_eliciting_in_flight = 0
        self.largest_acked = -1
        self.loss_time: Optional[float] = None
        self.last_ack_eliciting_sent: Optional[float] = None
        #: Packet numbers the peer has acknowledged (coalesces to a few
        #: ranges); consulted by the §7.6 persistent-congestion walk — an
        #: acked packet between two losses breaks the run.
        self.acked_pns = RangeSet()
        #: Declared-lost packets awaiting possible late ACKs (spurious
        #: loss detection), newest MAX_LOST_HISTORY only.
        self.lost_packets: dict[int, SentPacket] = {}
        # Receive side.
        self.received = RangeSet()
        self.largest_received = -1
        self.largest_received_time = 0.0
        self.ack_needed = False

    # --- sending ---------------------------------------------------------

    def take_packet_number(self) -> int:
        pn = self.next_packet_number
        self.next_packet_number += 1
        return pn

    def on_packet_sent(self, packet: SentPacket) -> None:
        self.sent[packet.packet_number] = packet
        if packet.ack_eliciting:
            self.ack_eliciting_in_flight += 1
            self.last_ack_eliciting_sent = packet.sent_time

    # --- receiving ---------------------------------------------------------

    def record_received(self, packet_number: int, now: float, ack_eliciting: bool) -> bool:
        """Track an incoming packet number; returns False for duplicates."""
        if packet_number in self.received:
            return False
        self.received.add(packet_number)
        if packet_number > self.largest_received:
            self.largest_received = packet_number
            self.largest_received_time = now
        if ack_eliciting:
            self.ack_needed = True
        return True

    def ack_frame(self, now: float,
                  max_ack_delay: float = MAX_ACK_DELAY) -> Optional[AckFrame]:
        """Build an ACK frame for everything received so far.

        The reported ack_delay is clamped to our own advertised
        ``max_ack_delay`` — the send-side mirror of the §5.3 receive-side
        clamp — so a slow event loop cannot report a delay we never
        negotiated and poison the peer's RTT estimator.
        """
        if not self.received:
            return None
        delay = max(0.0, now - self.largest_received_time)
        delay = min(delay, max_ack_delay)
        return AckFrame(ranges=self.received.tail(MAX_ACK_RANGES), ack_delay=delay)

    # --- ACK processing & loss detection ------------------------------------

    def on_ack_received(
        self, ack: AckFrame, now: float, rtt: RttEstimator
    ) -> AckResult:
        """Process a peer ACK; detects newly acked and (by packet threshold
        and time threshold) lost packets."""
        result = AckResult()
        largest = ack.ranges.largest()
        # Merge-walk the sorted outstanding packets against the sorted ACK
        # ranges: O(sent + ranges) regardless of how many numbers the
        # ranges cover.
        ranges = list(ack.ranges)
        candidates = []
        ri = 0
        for pn in sorted(self.sent):
            while ri < len(ranges) and pn >= ranges[ri].stop:
                ri += 1
            if ri == len(ranges):
                break
            if pn >= ranges[ri].start:
                candidates.append(pn)
        for pn in candidates:
            pkt = self.sent.pop(pn)
            self.ack_eliciting_in_flight -= pkt.ack_eliciting
            result.newly_acked.append(pkt)
            self.acked_pns.add(pn)
            if pn == largest and pkt.ack_eliciting:
                result.latest_rtt = now - pkt.sent_time
                rtt.update(result.latest_rtt, ack.ack_delay)
        # Spurious losses: the same merge-walk over the declared-lost
        # history.  A hit means the packet actually arrived — it leaves
        # the history, counts as delivered for the §7.6 run check, and
        # the caller can undo the congestion response.
        if self.lost_packets:
            ri = 0
            spurious_pns = []
            for pn in sorted(self.lost_packets):
                while ri < len(ranges) and pn >= ranges[ri].stop:
                    ri += 1
                if ri == len(ranges):
                    break
                if pn >= ranges[ri].start:
                    spurious_pns.append(pn)
            for pn in spurious_pns:
                pkt = self.lost_packets.pop(pn)
                self.acked_pns.add(pn)
                result.spurious.append(pkt)
        if largest > self.largest_acked:
            self.largest_acked = largest
        # ACK-of-ACK pruning: the peer just acked packets whose ACK
        # frames reported everything up to `bound`, so it has provably
        # seen those ranges acknowledged — they never need re-reporting
        # and can leave `received`, keeping it bounded on long transfers.
        bound = -1
        for pkt in result.newly_acked:
            if pkt.largest_ack_reported > bound:
                bound = pkt.largest_ack_reported
        if bound >= 0:
            self.received.prune_below(bound)
        result.lost = self.detect_lost(now, rtt)
        return result

    def detect_lost(self, now: float, rtt: RttEstimator) -> list:
        """Packet- and time-threshold loss detection (RFC 9002 §6.1)."""
        self.loss_time = None
        if self.largest_acked < 0:
            return []
        loss_delay = K_TIME_THRESHOLD * max(rtt.latest or rtt.smoothed, rtt.smoothed)
        loss_delay = max(loss_delay, K_GRANULARITY)
        lost: list[SentPacket] = []
        for pn in sorted(self.sent):
            if pn > self.largest_acked:
                # The walk is sorted, so nothing past largest_acked can
                # satisfy either threshold — stop instead of scanning the
                # whole in-flight tail on every ACK.
                break
            pkt = self.sent[pn]
            # The tolerance keeps this comparison consistent with the
            # re-armed loss_time below: without it, floating-point error
            # can re-arm the alarm at exactly `now` forever.
            if (
                self.largest_acked - pn >= K_PACKET_THRESHOLD
                or pkt.sent_time + loss_delay <= now + 1e-9
            ):
                lost.append(pkt)
            else:
                when = pkt.sent_time + loss_delay
                if self.loss_time is None or when < self.loss_time:
                    self.loss_time = when
        for pkt in lost:
            del self.sent[pkt.packet_number]
            self.ack_eliciting_in_flight -= pkt.ack_eliciting
            pkt.lost_time = now
            self.lost_packets[pkt.packet_number] = pkt
        if len(self.lost_packets) > MAX_LOST_HISTORY:
            for pn in sorted(self.lost_packets)[:-MAX_LOST_HISTORY]:
                del self.lost_packets[pn]
        return lost

    def persistent_congestion(self, lost: list, duration: float) -> bool:
        """RFC 9002 §7.6: is there an unbroken run of newly lost
        ack-eliciting packets whose send times span more than
        ``duration``?  Unbroken means every packet numbered between two
        run members is also lost — none was acked or is still
        outstanding."""
        eliciting = sorted(
            (p for p in lost if p.ack_eliciting),
            key=lambda p: p.packet_number,
        )
        if len(eliciting) < 2:
            return False
        run_start = prev = eliciting[0]
        for pkt in eliciting[1:]:
            if self._run_broken(prev.packet_number, pkt.packet_number):
                run_start = pkt
            elif pkt.sent_time - run_start.sent_time > duration:
                return True
            prev = pkt
        return False

    def _run_broken(self, low_pn: int, high_pn: int) -> bool:
        """True if any packet numbered strictly between ``low_pn`` and
        ``high_pn`` was delivered (acked) or is still outstanding."""
        for pn in range(low_pn + 1, high_pn):
            if pn in self.acked_pns or pn in self.sent:
                return True
        return False

    def pto_deadline(self, rtt: RttEstimator, pto_count: int) -> Optional[float]:
        """When the PTO alarm should fire, or None if nothing in flight."""
        if self.last_ack_eliciting_sent is None or not self.ack_eliciting_in_flight:
            return None
        return self.last_ack_eliciting_sent + rtt.pto() * (1 << pto_count)

    def next_timer(self, rtt: RttEstimator, pto_count: int) -> Optional[float]:
        """Earliest of the loss-time and PTO alarms."""
        loss = self.loss_time
        pto = self.pto_deadline(rtt, pto_count)
        if loss is None or (pto is not None and pto < loss):
            return pto
        return loss

    def release(self) -> None:
        """Drop all send/receive tracking (connection terminated)."""
        self.sent.clear()
        self.ack_eliciting_in_flight = 0
        self.lost_packets.clear()
        self.received = RangeSet()
        self.loss_time = None
        self.last_ack_eliciting_sent = None
        self.ack_needed = False

    def probe_candidates(self, max_probes: int = MAX_PTO_PROBES) -> list:
        """PTO expiry (RFC 9002 §6.2.4): the oldest ack-eliciting
        outstanding packets whose frames the probe packets retransmit.

        Nothing is declared lost and nothing leaves ``sent`` — an ACK
        may still be merely late.  Actual loss stays the job of the
        packet/time thresholds in :meth:`detect_lost` once the probe
        elicits a fresh ACK.
        """
        probes: list[SentPacket] = []
        for pn in sorted(self.sent):
            pkt = self.sent[pn]
            if pkt.ack_eliciting:
                probes.append(pkt)
                if len(probes) >= max_probes:
                    break
        return probes
