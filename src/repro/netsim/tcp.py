"""A TCP model with Cubic congestion control.

Figures 8 and 11 measure the Download Completion Time of "a single file
transfer using TCPCubic" inside and outside the PQUIC VPN tunnel.  This
module provides that traffic source: a connection-oriented, reliable byte
stream with slow start, Cubic congestion avoidance, fast
retransmit/recovery on three duplicate ACKs, and an RFC 6298 retransmission
timer.  The segment transport is a pluggable ``send`` function, so the same
flow runs natively over the simulator or through the VPN tunnel device.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional

from .sim import Simulator

TCP_HEADER = 20
IP_HEADER = 20
#: Cubic constants (RFC 8312).
CUBIC_C = 0.4
CUBIC_BETA = 0.7

FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4
FLAG_SACK = 0x8

MAX_SACK_BLOCKS = 4

_SEG = struct.Struct("<IIBBH")  # seq, ack, flags, n_sacks, window(unused)


@dataclass
class Segment:
    seq: int = 0
    ack: int = 0
    flags: int = 0
    data: bytes = b""
    sacks: Optional[list] = None  # [(start, stop), ...] on ACK segments

    def encode(self) -> bytes:
        sacks = self.sacks or []
        flags = self.flags | (FLAG_SACK if sacks else 0)
        header = _SEG.pack(self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
                           flags, len(sacks), 0)
        blocks = b"".join(
            struct.pack("<II", s & 0xFFFFFFFF, e & 0xFFFFFFFF) for s, e in sacks
        )
        pad = b"\x00" * (TCP_HEADER + IP_HEADER - _SEG.size)
        return header + pad + blocks + self.data

    @classmethod
    def decode(cls, data: bytes) -> "Segment":
        seq, ack, flags, n_sacks, _win = _SEG.unpack_from(data)
        offset = TCP_HEADER + IP_HEADER
        sacks = []
        if flags & FLAG_SACK:
            for _ in range(n_sacks):
                s, e = struct.unpack_from("<II", data, offset)
                sacks.append((s, e))
                offset += 8
        return cls(seq=seq, ack=ack, flags=flags, data=data[offset:],
                   sacks=sacks or None)

    @property
    def size(self) -> int:
        return len(self.encode())


class CubicWindow:
    """Cubic congestion window (in bytes), with standard slow start."""

    def __init__(self, mss: int, initial_segments: int = 10):
        self.mss = mss
        self.cwnd = float(initial_segments * mss)
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self._epoch_start: Optional[float] = None
        self._k = 0.0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_ack(self, acked_bytes: int, now: float, rtt: float) -> None:
        if self.in_slow_start:
            self.cwnd += acked_bytes
            return
        if self._epoch_start is None:
            self._epoch_start = now
            w_max_seg = max(self.w_max, self.cwnd) / self.mss
            self._k = (w_max_seg * (1 - CUBIC_BETA) / CUBIC_C) ** (1 / 3)
        t = now - self._epoch_start + rtt
        target = CUBIC_C * (t - self._k) ** 3 + self.w_max / self.mss
        target_bytes = max(target * self.mss, self.cwnd + self.mss * 0.01)
        # Approach the cubic target gradually (per-ACK increment).
        self.cwnd += (target_bytes - self.cwnd) * acked_bytes / max(self.cwnd, 1.0)
        self.cwnd = max(self.cwnd, 2 * self.mss)

    def on_loss(self) -> None:
        self.w_max = self.cwnd
        self.cwnd = max(self.cwnd * CUBIC_BETA, 2 * self.mss)
        self.ssthresh = self.cwnd
        self._epoch_start = None

    def on_timeout(self) -> None:
        self.w_max = self.cwnd
        self.ssthresh = max(self.cwnd * CUBIC_BETA, 2 * self.mss)
        self.cwnd = float(self.mss)
        self._epoch_start = None


class TcpSender:
    """The sending side of a one-way bulk transfer."""

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[bytes], None],
        total_bytes: int,
        mss: int = 1460,
        on_complete: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.send = send
        self.total = total_bytes
        self.mss = mss
        self.on_complete = on_complete
        self.window = CubicWindow(mss)
        self.snd_una = 0          # first unacked byte
        self.snd_nxt = 0          # next new byte to send
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 1.0
        self.completed = False
        self.syn_acked = False
        self.retransmissions = 0
        self._sent_times: dict[int, float] = {}
        self._dupacks = 0
        self._recover = 0
        self._in_recovery = False
        self._rto_event = None
        self._sacked: list = []       # merged [(start, stop)] above snd_una
        self._rtx_done: set = set()   # hole starts retransmitted this episode
        self._ever_rtx: set = set()   # every seq ever retransmitted
        self._reordering_seen = False  # adaptive RACK switch

    # ------------------------------------------------------------------

    def start(self) -> None:
        self.send(Segment(seq=0, flags=FLAG_SYN).encode())
        self._arm_rto()

    def on_segment(self, data: bytes) -> None:
        seg = Segment.decode(data)
        if seg.flags & FLAG_SYN and seg.flags & FLAG_ACK and not self.syn_acked:
            self.syn_acked = True
            self._rtt_sample(self.sim.now)  # SYN rtt approximation skipped
            self._pump()
            return
        if not seg.flags & FLAG_ACK:
            return
        if seg.sacks:
            self._merge_sacks(seg.sacks)
        self._on_ack(seg.ack)

    def _on_ack(self, ack: int) -> None:
        if self.completed:
            return
        if ack > self.snd_una:
            # A hole that fills without us having retransmitted it, while
            # SACK blocks sat above it, was reordering — not loss.  Switch
            # the loss detector to RACK-style time-based tolerance.
            if (
                self._sacked
                and not self._reordering_seen
                and self.snd_una not in self._ever_rtx
                and any(s > self.snd_una for s, _e in self._sacked)
            ):
                self._reordering_seen = True
            acked = ack - self.snd_una
            sent_at = self._sent_times.pop(self.snd_una, None)
            if sent_at is not None and not self._in_recovery:
                self._rtt_sample(self.sim.now - sent_at)
            elif self.srtt is not None:
                # New data acked: cancel any exponential RTO backoff.
                self.rto = max(0.2, self.srtt + max(0.01, 4 * self.rttvar))
            self.snd_una = ack
            self._dupacks = 0
            self._sacked = [(s, e) for s, e in self._sacked if e > self.snd_una]
            if len(self._sent_times) > 256:
                self._sent_times = {
                    k: v for k, v in self._sent_times.items()
                    if k >= self.snd_una
                }
            if self._in_recovery:
                if ack >= self._recover:
                    self._in_recovery = False
                    self._rtx_done.clear()
                else:
                    # Partial ACK: the next hole is also lost.
                    self._retransmit_holes(limit=2)
            if not self._in_recovery:
                rtt = self.srtt or 0.1
                self.window.on_ack(acked, self.sim.now, rtt)
            self._arm_rto()
            if self.snd_una >= self.total:
                self._complete()
                return
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._dupacks += 1
            if (self._dupacks >= 3 and not self._in_recovery
                    and self._hole_is_lost()):
                # Fast retransmit + SACK-based recovery.
                self._in_recovery = True
                self._recover = self.snd_nxt
                self._rtx_done.clear()
                self.window.on_loss()
                self._retransmit_holes(limit=3)
            elif self._in_recovery:
                self._retransmit_holes(limit=2)
        self._pump()

    def _hole_is_lost(self) -> bool:
        """Adaptive RACK-style reordering tolerance (Linux behaviour).

        Until reordering has actually been observed on the path, classic
        3-dupack semantics apply (a full window with a real loss generates
        no new SACKs, so a pure time test would stall into RTO).  Once a
        hole has been seen to fill on its own, treat a hole as lost only
        if some SACKed segment was sent a reordering-window *later* —
        multipath round-robin reorders constantly and classic dupack
        would spuriously halve the window."""
        if not self._reordering_seen:
            return True
        if not self._sacked:
            return True  # no SACK info: classic dupack semantics
        hole_time = self._sent_times.get(self.snd_una)
        if hole_time is None:
            return True
        reo_wnd = (self.srtt or 0.1) / 4
        newest_sacked = None
        for seq, sent_at in self._sent_times.items():
            if seq <= self.snd_una:
                continue
            if any(s <= seq < e for s, e in self._sacked):
                if newest_sacked is None or sent_at > newest_sacked:
                    newest_sacked = sent_at
        if newest_sacked is None:
            return True
        return newest_sacked > hole_time + reo_wnd

    def _merge_sacks(self, blocks: list) -> None:
        merged = sorted(self._sacked + [tuple(b) for b in blocks])
        out: list = []
        for start, stop in merged:
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], stop))
            else:
                out.append((start, stop))
        self._sacked = out

    def _holes(self) -> list:
        """Unsacked gaps between snd_una and the highest SACKed byte."""
        if not self._sacked:
            return [(self.snd_una, min(self.snd_una + self.mss, self.total))]
        holes = []
        cursor = self.snd_una
        for start, stop in self._sacked:
            if start > cursor:
                holes.append((cursor, start))
            cursor = max(cursor, stop)
        return holes

    def _retransmit_holes(self, limit: int) -> None:
        sent = 0
        for start, stop in self._holes():
            seq = start
            while seq < stop and sent < limit:
                if seq not in self._rtx_done:
                    end = min(seq + self.mss, stop, self.total)
                    fin = FLAG_FIN if end >= self.total else 0
                    self.send(Segment(
                        seq=seq, flags=fin, data=b"\x00" * (end - seq)
                    ).encode())
                    self._sent_times.pop(seq, None)
                    self._rtx_done.add(seq)
                    self._ever_rtx.add(seq)
                    self.retransmissions += 1
                    sent += 1
                seq = min(seq + self.mss, stop)
            if sent >= limit:
                break
        self._arm_rto()

    def _pump(self) -> None:
        if not self.syn_acked or self.completed:
            return
        inflight = self.snd_nxt - self.snd_una
        while (
            self.snd_nxt < self.total
            and inflight + self.mss <= self.window.cwnd
        ):
            end = min(self.snd_nxt + self.mss, self.total)
            fin = FLAG_FIN if end >= self.total else 0
            self.send(Segment(
                seq=self.snd_nxt,
                flags=fin,
                data=b"\x00" * (end - self.snd_nxt),
            ).encode())
            self._sent_times[self.snd_nxt] = self.sim.now
            self.snd_nxt = end
            inflight = self.snd_nxt - self.snd_una
        if self._rto_event is None:
            self._arm_rto()

    # --- timers ----------------------------------------------------------

    def _rtt_sample(self, rtt: float) -> None:
        if rtt <= 0:
            return
        # HyStart-like delay-based slow-start exit: queue build-up beyond
        # 1.5x the base RTT means the pipe is full — stop doubling before
        # the drop-tail burst (Linux Cubic behaves this way).
        self._min_rtt_seen = min(getattr(self, "_min_rtt_seen", rtt), rtt)
        if (
            self.window.in_slow_start
            and rtt > self._min_rtt_seen * 1.5
            and self.window.cwnd > 16 * self.mss
        ):
            self.window.ssthresh = self.window.cwnd
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = max(0.2, self.srtt + max(0.01, 4 * self.rttvar))

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self.completed:
            return
        if self.snd_nxt > self.snd_una or not self.syn_acked:
            self._rto_event = self.sim.schedule(self.rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.completed:
            return
        if not self.syn_acked:
            self.send(Segment(seq=0, flags=FLAG_SYN).encode())
        else:
            # RFC 6675 §5.1, Linux tcp_enter_loss: every un-SACKed segment
            # below snd_nxt is lost, repaired as the partial ACKs return.
            self.window.on_timeout()
            self._in_recovery = True
            self._recover = self.snd_nxt
            self._rtx_done.clear()
            self._retransmit_holes(limit=1)
        self.rto = min(self.rto * 2, 60.0)
        self._arm_rto()

    def _complete(self) -> None:
        self.completed = True
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self.on_complete is not None:
            self.on_complete()


class TcpReceiver:
    """The receiving side: reassembly and cumulative ACKs."""

    def __init__(self, sim: Simulator, send: Callable[[bytes], None]):
        self.sim = sim
        self.send = send
        self.rcv_nxt = 0
        self._ooo: dict[int, int] = {}  # seq -> end of out-of-order chunk
        self.bytes_received = 0
        self.fin_seq: Optional[int] = None
        self.finished = False

    def on_segment(self, data: bytes) -> None:
        seg = Segment.decode(data)
        if seg.flags & FLAG_SYN:
            self.send(Segment(seq=0, ack=0, flags=FLAG_SYN | FLAG_ACK).encode())
            return
        end = seg.seq + len(seg.data)
        if seg.flags & FLAG_FIN:
            self.fin_seq = end
        if end > self.rcv_nxt:
            if seg.seq <= self.rcv_nxt:  # in-order (or fills the hole)
                self.rcv_nxt = end
                # Absorb any buffered chunks now contiguous.
                changed = True
                while changed:
                    changed = False
                    for start, stop in sorted(self._ooo.items()):
                        if start <= self.rcv_nxt < stop:
                            self.rcv_nxt = stop
                            del self._ooo[start]
                            changed = True
                            break
                        if stop <= self.rcv_nxt:
                            del self._ooo[start]
                            changed = True
                            break
            else:
                self._ooo[seg.seq] = max(self._ooo.get(seg.seq, 0), end)
        self.bytes_received = self.rcv_nxt
        if self.fin_seq is not None and self.rcv_nxt >= self.fin_seq:
            self.finished = True
        sacks = self._sack_blocks()
        self.send(Segment(seq=0, ack=self.rcv_nxt, flags=FLAG_ACK,
                          sacks=sacks).encode())

    def _sack_blocks(self) -> Optional[list]:
        if not self._ooo:
            return None
        merged: list = []
        for start, stop in sorted(self._ooo.items()):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
            else:
                merged.append((start, stop))
        return merged[:MAX_SACK_BLOCKS]


class TcpBulkTransfer:
    """Convenience wiring: a one-way TCP Cubic file transfer.

    ``sender_send`` / ``receiver_send`` deliver raw segment bytes toward
    the peer (plain simulator sockets or a VPN tunnel device).  Call
    :meth:`start`; :attr:`completed` and :attr:`completion_time` report
    the outcome (completion = last data byte ACKed at the sender).
    """

    def __init__(self, sim: Simulator, total_bytes: int, mss: int = 1460):
        self.sim = sim
        self.total = total_bytes
        self.completion_time: Optional[float] = None
        self.start_time: Optional[float] = None

        self.sender: Optional[TcpSender] = None
        self.receiver: Optional[TcpReceiver] = None
        self._mss = mss

    def wire(self, sender_send: Callable[[bytes], None],
             receiver_send: Callable[[bytes], None]) -> None:
        self.sender = TcpSender(
            self.sim, sender_send, self.total, mss=self._mss,
            on_complete=self._done,
        )
        self.receiver = TcpReceiver(self.sim, receiver_send)

    def start(self) -> None:
        self.start_time = self.sim.now
        self.sender.start()

    def _done(self) -> None:
        self.completion_time = self.sim.now

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def dct(self) -> Optional[float]:
        if self.completion_time is None or self.start_time is None:
            return None
        return self.completion_time - self.start_time
