"""Congestion controllers.

NewReno is the default, as in picoquic at the time of the paper; the
initial congestion window defaults to 16 kB ("the initial path window of
mp-quic (32 kB), inherited from quic-go, is twice the default one of PQUIC
(16 kB)" — §4.3), which the Figure-9 baseline reproduces by passing 32 kB.
"""

from __future__ import annotations

MAX_DATAGRAM_SIZE = 1280
DEFAULT_INITIAL_WINDOW = 16 * 1024
MINIMUM_WINDOW = 2 * MAX_DATAGRAM_SIZE
LOSS_REDUCTION_FACTOR = 0.5


class CongestionController:
    """Interface shared by all congestion controllers.

    Bytes in flight are the host's bookkeeping: it charges a packet in
    :meth:`on_packet_sent` and releases it in :meth:`on_packet_released`
    once the packet is acked or declared lost, before the controller
    hears of it.  A controller only moves ``cwnd``; the host publishes
    every move (``cc_window_updated``)."""

    def __init__(self, initial_window: int = DEFAULT_INITIAL_WINDOW):
        self.cwnd = initial_window
        self.initial_window = initial_window
        self.bytes_in_flight = 0

    @property
    def available_window(self) -> int:
        return max(0, self.cwnd - self.bytes_in_flight)

    @property
    def state(self) -> str:
        """Congestion state label for the qlog
        ``congestion_state_updated`` event."""
        return "unknown"

    def on_packet_sent(self, size: int) -> None:
        self.bytes_in_flight += size

    def on_packet_released(self, size: int) -> None:
        """A packet left flight: acked, or declared lost."""
        self.bytes_in_flight = max(0, self.bytes_in_flight - size)

    def on_ack(self, size: int, now: float, sent_time: float,
               app_limited: bool = False) -> None:
        raise NotImplementedError

    def on_loss(self, size: int, now: float, sent_time: float) -> None:
        raise NotImplementedError

    def on_persistent_congestion(self) -> None:
        """RFC 9002 §7.6: a duration-spanning run of losses proved the
        path persistently congested.  No-op by default."""

    def on_spurious_loss(self, size: int, lost_time: float,
                         sent_time: float) -> None:
        """A declared-lost packet was later acked.  No-op by default."""


class NewRenoController(CongestionController):
    """Slow start + AIMD congestion avoidance with loss-epoch handling."""

    def __init__(self, initial_window: int = DEFAULT_INITIAL_WINDOW):
        super().__init__(initial_window)
        self.ssthresh: float = float("inf")
        self._recovery_start: float = -1.0
        self._in_recovery = False
        # Byte-counting accumulator for congestion avoidance: the
        # classic `MSS * acked // cwnd` increment rounds to zero for
        # small ACKed sizes at large cwnd, freezing growth entirely.
        # Instead, accumulate acked bytes and add one full MSS per cwnd
        # of data acknowledged (RFC 3465-style byte counting).
        self._ca_acked = 0
        # Pre-reduction window saved for spurious-loss undo; restored
        # when every loss of the epoch proves spurious.
        self._undo_cwnd = 0
        self._undo_ssthresh: float = float("inf")
        self._undo_available = False
        self._epoch_losses = 0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    @property
    def state(self) -> str:
        if self._in_recovery:
            return "recovery"
        if self.in_slow_start:
            return "slow_start"
        return "congestion_avoidance"

    def on_ack(self, size: int, now: float, sent_time: float,
               app_limited: bool = False) -> None:
        if sent_time <= self._recovery_start:
            return  # no growth for packets sent before recovery began
        if self._in_recovery:
            self._in_recovery = False  # forward progress past the epoch
        if app_limited:
            # §7.8: the window was under-utilized when this packet left;
            # growing it would not be validated by actual delivery rate.
            return
        if self.in_slow_start:
            self.cwnd += size
        else:
            self._ca_acked += size
            if self._ca_acked >= self.cwnd:
                self._ca_acked -= self.cwnd
                self.cwnd += MAX_DATAGRAM_SIZE

    def on_loss(self, size: int, now: float, sent_time: float) -> None:
        if sent_time <= self._recovery_start:
            self._epoch_losses += 1  # same epoch, no further reduction
            return
        self._undo_cwnd = self.cwnd
        self._undo_ssthresh = self.ssthresh
        self._undo_available = True
        self._epoch_losses = 1
        self._recovery_start = now
        self._in_recovery = True
        self._ca_acked = 0
        self.cwnd = max(int(self.cwnd * LOSS_REDUCTION_FACTOR), MINIMUM_WINDOW)
        self.ssthresh = self.cwnd

    def on_persistent_congestion(self) -> None:
        # §7.6.2: collapse to the minimum window and restart from slow
        # start; the next loss may open a fresh epoch immediately.  The
        # collapse is evidence, not conjecture — no undo.
        self.cwnd = MINIMUM_WINDOW
        self._ca_acked = 0
        self._in_recovery = False
        self._undo_available = False
        self._recovery_start = -1.0

    def on_spurious_loss(self, size: int, lost_time: float,
                         sent_time: float) -> None:
        # The host released the packet from flight when the loss was
        # declared; only the window reduction may need undoing.  Each
        # spurious loss belonging to the current epoch cancels one
        # genuine loss; when none remain, the whole reduction was built
        # on late ACKs — restore the pre-reduction cwnd/ssthresh
        # (F-RTO-style undo).
        if lost_time < self._recovery_start:
            return  # declared lost before the current epoch began
        self._epoch_losses = max(0, self._epoch_losses - 1)
        if self._undo_available and self._epoch_losses == 0:
            self.cwnd = max(self.cwnd, self._undo_cwnd)
            self.ssthresh = self._undo_ssthresh
            self._undo_available = False
            self._in_recovery = False
