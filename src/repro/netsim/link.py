"""Link model: bandwidth, propagation delay, drop-tail buffer, seeded loss.

Reproduces the Figure-7 testbed links, which the paper shapes with NetEm
(delay) and HTB (rate) and a *seeded* random loss generator so that an
experiment replays the same loss pattern across runs.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .sim import Simulator

#: Extra bytes a datagram occupies on the wire (IPv4 20 + UDP 8), matching
#: the paper's accounting of the 44-byte VPN overhead over IPv4.
IPV4_UDP_OVERHEAD = 28


class SeededLossGen:
    """Bernoulli packet-loss generator with a reproducible seed.

    The paper: "Losses are generated using a seeded random loss generator
    attached to the routers. This allows fair performance comparisons as the
    same loss pattern is applied when an experiment is replayed."
    """

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be within [0, 1]: {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self.drops = 0
        self.passed = 0

    def should_drop(self) -> bool:
        # Draw even when rate == 0 so that enabling losses does not shift
        # the random sequence of other generators.
        drop = self._rng.random() < self.rate
        if drop:
            self.drops += 1
        else:
            self.passed += 1
        return drop


class LinkStats:
    """Counters kept by each unidirectional pipe."""

    __slots__ = ("tx_packets", "tx_bytes", "dropped_buffer", "dropped_loss")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_buffer = 0
        self.dropped_loss = 0


class Pipe:
    """One direction of a link: rate limiter + FIFO buffer + delay + loss.

    Serialization is modelled exactly: a packet of ``size`` bytes occupies
    the transmitter for ``size * 8 / bandwidth`` seconds; packets arriving
    while the transmitter is busy queue in a byte-limited drop-tail buffer.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        bandwidth: float,
        loss: Optional[SeededLossGen] = None,
        buffer_bytes: int = 64 * 1024,
        overhead: int = IPV4_UDP_OVERHEAD,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        ecn_threshold: Optional[int] = None,
    ):
        """``jitter`` adds a seeded uniform [0, jitter] extra delay per
        packet (NetEm's delay variation); enough jitter reorders packets,
        which QUIC must tolerate.

        ``ecn_threshold`` enables ECN: packets enqueued while the buffer
        holds more than this many bytes get their CE codepoint set instead
        of waiting for a drop (a simple step-marking AQM)."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0 bits/s")
        if jitter < 0:
            raise ValueError("jitter must be >= 0")
        self.sim = sim
        self.delay = delay
        self.bandwidth = bandwidth
        self.loss = loss
        self.buffer_bytes = buffer_bytes
        self.overhead = overhead
        self.jitter = jitter
        self._jitter_rng = random.Random(jitter_seed) if jitter > 0 else None
        self.ecn_threshold = ecn_threshold
        self.ecn_marked = 0
        self.stats = LinkStats()
        self._queue: list[tuple[object, int]] = []
        self._queued_bytes = 0
        self._busy = False
        self._deliver: Optional[Callable[[object], None]] = None

    def connect(self, deliver: Callable[[object], None]) -> None:
        """Set the receive callback at the far end of the pipe."""
        self._deliver = deliver

    def _admit(self, packet: object, wire_size: int) -> bool:
        """The ingress rule for one datagram: loss draw, then buffer
        check, then ECN mark.  An admitted datagram's bytes count as
        queued; the caller puts it on the queue."""
        if self.loss is not None and self.loss.should_drop():
            self.stats.dropped_loss += 1
            return False
        if self._queued_bytes + wire_size > self.buffer_bytes:
            self.stats.dropped_buffer += 1
            return False
        if (
            self.ecn_threshold is not None
            and self._queued_bytes > self.ecn_threshold
            and hasattr(packet, "ecn_ce")
        ):
            packet.ecn_ce = True
            self.ecn_marked += 1
        self._queued_bytes += wire_size
        return True

    def send(self, packet: object, size: int) -> bool:
        """Enqueue ``packet`` whose payload is ``size`` bytes.

        Returns False if the packet was dropped (buffer overflow or random
        loss at ingress).
        """
        if self._deliver is None:
            raise RuntimeError("pipe is not connected")
        wire_size = size + self.overhead
        if not self._admit(packet, wire_size):
            return False
        self._queue.append((packet, wire_size))
        if not self._busy:
            self._transmit_next()
        return True

    def send_burst(self, burst) -> int:
        """GSO-style enqueue: the burst occupies ONE queue slot and ONE
        delivery event, but each segment passes :meth:`_admit` in order
        — behind a busy transmitter, the identical decision sequence to
        sending each segment alone, back to back with no simulated time
        in between.  (On an idle pipe a lone datagram goes straight to
        the transmitter, while a burst's first segment waits in the
        queue with the rest of the train.)
        Serialization time equals the sum of the segments'; the burst is
        delivered tail-aligned (when its last byte would have arrived),
        with one jitter draw for the train.  Returns the number of
        admitted segments (0 = everything dropped at ingress)."""
        if self._deliver is None:
            raise RuntimeError("pipe is not connected")
        admitted = []
        burst_wire = 0
        for dgram in burst.segments:
            wire_size = dgram.size + self.overhead
            if self._admit(dgram, wire_size):
                admitted.append(dgram)
                burst_wire += wire_size
        if not admitted:
            return 0
        burst.segments = admitted
        self.sim.note_coalesced(len(admitted) - 1)
        self._queue.append((burst, burst_wire))
        if not self._busy:
            self._transmit_next()
        return len(admitted)

    def _transmit_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet, wire_size = self._queue.pop(0)
        self._queued_bytes -= wire_size
        tx_time = wire_size * 8.0 / self.bandwidth
        segments = getattr(packet, "segments", None)
        self.stats.tx_packets += 1 if segments is None else len(segments)
        self.stats.tx_bytes += wire_size
        extra = self._jitter_rng.uniform(0, self.jitter) if self._jitter_rng else 0.0
        self.sim.schedule(tx_time + self.delay + extra, self._deliver, packet)
        self.sim.schedule(tx_time, self._transmit_next)


class Link:
    """A bidirectional link made of two independent pipes.

    ``delay`` is the one-way delay in seconds and ``bandwidth`` in bits/s,
    as in the paper's {d, bw, l} link parameters.
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        bandwidth: float,
        loss_rate: float = 0.0,
        seed: int = 0,
        buffer_bytes: int = 64 * 1024,
        jitter: float = 0.0,
    ):
        # Distinct seeds per direction; both derive deterministically.
        self.forward = Pipe(
            sim, delay, bandwidth,
            SeededLossGen(loss_rate, seed * 2 + 1) if loss_rate > 0 else None,
            buffer_bytes, jitter=jitter, jitter_seed=seed * 2 + 3,
        )
        self.backward = Pipe(
            sim, delay, bandwidth,
            SeededLossGen(loss_rate, seed * 2 + 2) if loss_rate > 0 else None,
            buffer_bytes, jitter=jitter, jitter_seed=seed * 2 + 4,
        )
