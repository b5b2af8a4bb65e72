"""Stream state: ordered byte streams with reassembly and flow control.

QUIC streams are the reliable, ordered byte-stream service the paper's
plugins build around (and that the Datagram plugin supplements with an
unreliable message mode).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FinalSizeError, FlowControlError, StreamStateError

from .wire import RangeSet


#: Receive-window auto-tuning gain.  Credit is renewed at half-use, so a
#: window-limited sender delivers about half a window per round trip:
#: a gain of 2 would reproduce the window it measures and never grow it.
FLOW_WINDOW_GAIN = 2.5
#: A tuned window never exceeds this many times its initial size.
FLOW_WINDOW_CAP = 16


class FlowWindow:
    """A receive window that tracks delivery rate × min RTT.

    One per receive stream and one per connection.  Credit is renewed
    once half the window is used (:meth:`due`).  A renewal
    (:meth:`renew`) measures the bytes received since the previous one
    over the time elapsed, and the window becomes ``max(window,
    FLOW_WINDOW_GAIN × rate × min RTT)``, capped at ``FLOW_WINDOW_CAP ×``
    the initial window.  It never shrinks, and a sender that does not
    fill it (an app-limited trickle) measures a rate × RTT far below it,
    so never grows it.
    """

    __slots__ = ("size", "cap", "_mark_time", "_mark_bytes")

    def __init__(self, initial: int, now: float = 0.0):
        self.size = initial
        self.cap = FLOW_WINDOW_CAP * initial
        self._mark_time = now
        self._mark_bytes = 0

    def due(self, received: int, limit: int) -> bool:
        """Whether credit up to *limit* should be renewed, *received*
        bytes having arrived."""
        return received > limit - self.size // 2

    def renew(self, received: int, base: int, limit: int, now: float,
              min_rtt: float) -> int:
        """Retune the window and return the new limit ``base + window``,
        or 0 when that would not raise *limit*: credit already granted
        is never taken back, and a renewal that grants nothing leaves the
        measurement running.  An RTT not yet sampled (``inf``) or no
        elapsed time leaves the window as it is."""
        size = self.size
        elapsed = now - self._mark_time
        if elapsed > 0 and min_rtt != float("inf"):
            target = int(FLOW_WINDOW_GAIN * (received - self._mark_bytes)
                         / elapsed * min_rtt)
            if target > size:
                size = min(self.cap, target)
        new_limit = base + size
        if new_limit <= limit:
            return 0
        self.size = size
        self._mark_time = now
        self._mark_bytes = received
        return new_limit


class SendStream:
    """The sending half: buffers app data, tracks ACKed/lost ranges."""

    def __init__(self, stream_id: int, max_stream_data: int):
        self.stream_id = stream_id
        self.max_stream_data = max_stream_data  # peer-imposed limit
        self._buffer = bytearray()
        self._buffer_start = 0  # absolute offset of _buffer[0]
        self._pending = RangeSet()  # byte ranges needing (re)transmission
        self._acked = RangeSet()
        self._highest_offset = 0  # total bytes ever written
        self.fin = False
        self._fin_pending = False
        self._fin_acked = False
        self.blocked = False  # flow-control blocked on last send attempt
        self.fc_high = 0  # highest offset charged to connection flow control

    # --- application side ------------------------------------------------

    def write(self, data: bytes) -> None:
        if self.fin:
            raise StreamStateError(f"write after FIN on stream {self.stream_id}")
        if data:
            if not self._buffer and type(data) is bytes:
                # Nothing unsent or unacknowledged is buffered: hold the
                # caller's bytes as they are, copied by no one.
                self._buffer = memoryview(data)
            else:
                if type(self._buffer) is memoryview:
                    self._buffer = bytearray(self._buffer)
                self._buffer.extend(data)
            self._pending.add(self._highest_offset, self._highest_offset + len(data))
            self._highest_offset += len(data)

    def finish(self) -> None:
        if not self.fin:
            self.fin = True
            self._fin_pending = True

    # --- transport side ---------------------------------------------------

    @property
    def final_size(self) -> Optional[int]:
        return self._highest_offset if self.fin else None

    @property
    def has_pending(self) -> bool:
        if self._pending:
            # Data is sendable only below the peer's limit; while every
            # pending byte sits at/above it the stream is flow-blocked
            # and must not be scheduled (a FIN behind blocked data
            # cannot jump the queue either).
            return self._pending.smallest() < self.max_stream_data
        # A bare FIN consumes no flow-control credit, so it stays
        # sendable even with the final offset exactly at
        # max_stream_data (the FIN-at-limit edge).
        return self._fin_pending

    @property
    def bytes_in_flight_or_pending(self) -> int:
        return self._pending.covered()

    def next_chunk(self, max_bytes: int) -> Optional[tuple[int, bytes, bool]]:
        """Pop the next (offset, data, fin) to send, or None.

        Respects the peer's MAX_STREAM_DATA limit; marks the stream
        ``blocked`` when the limit (not ``max_bytes``) is what stopped it.
        """
        self.blocked = False
        if self._pending:
            first = next(iter(self._pending))
            start = first.start
            if start >= self.max_stream_data:
                self.blocked = True
                return None
            stop = min(first.stop, start + max_bytes, self.max_stream_data)
            if stop <= start:
                return None
            data = bytes(
                self._buffer[start - self._buffer_start: stop - self._buffer_start]
            )
            # O(1): a bulk sender always consumes a prefix of the
            # lowest pending range, so chop it instead of rebuilding
            # the whole range list with subtract().
            self._pending.chop_first(stop)
            fin = (
                self.fin
                and stop == self._highest_offset
                and not self._pending
            )
            if fin:
                self._fin_pending = False
            return start, data, fin
        if self._fin_pending:
            # FIN with no data: empty stream, data already in flight, or
            # the final offset exactly at the flow-control limit.  An
            # empty FIN frame consumes no credit, so it may leave even
            # when _highest_offset == max_stream_data.
            self._fin_pending = False
            return self._highest_offset, b"", True
        return None

    def on_ack(self, offset: int, length: int, fin: bool) -> None:
        if length:
            self._acked.add(offset, offset + length)
        if fin:
            self._fin_acked = True
        self._release_acked_prefix()

    def on_loss(self, offset: int, length: int, fin: bool) -> None:
        """Requeue a lost chunk, minus anything ACKed since."""
        if length:
            lost = RangeSet([range(offset, offset + length)])
            for r in self._acked:
                lost.subtract(r.start, r.stop)
            for r in lost:
                self._pending.add(r.start, r.stop)
        if fin and not self._fin_acked:
            self._fin_pending = True

    def _release_acked_prefix(self) -> None:
        """Free buffer memory for the fully-ACKed prefix."""
        if not self._acked:
            return
        first = next(iter(self._acked))
        if first.start > self._buffer_start:
            return
        release_to = first.stop
        drop = release_to - self._buffer_start
        # Amortize: shifting the bytearray is O(remaining), so only release
        # once a sizeable prefix has been acknowledged.
        if drop >= 256 * 1024 or (drop > 0 and release_to >= self._highest_offset):
            if type(self._buffer) is memoryview:
                self._buffer = self._buffer[drop:]
            else:
                del self._buffer[:drop]
            self._buffer_start = release_to

    @property
    def all_acked(self) -> bool:
        data_done = (
            not self._pending
            and self._acked.covered() == self._highest_offset
        )
        return data_done and (not self.fin or self._fin_acked)

    @property
    def is_finished(self) -> bool:
        """Terminal state of the send half: FIN was set, and it and
        every byte before it have been acknowledged."""
        return self._fin_acked and self.all_acked

    def update_max_stream_data(self, maximum: int) -> None:
        if maximum > self.max_stream_data:
            self.max_stream_data = maximum


class ReceiveStream:
    """The receiving half: reassembles, enforces flow control and final size."""

    def __init__(self, stream_id: int, max_stream_data: int, now: float = 0.0):
        self.stream_id = stream_id
        self.max_stream_data = max_stream_data  # local limit we advertised
        self.window = FlowWindow(max_stream_data, now)
        self._received = RangeSet()
        # Out-of-order chunks; bytes or memoryviews into packet plaintext
        # (fresh per packet, so views stay valid until drained).
        self._chunks: dict[int, bytes] = {}
        self._read_offset = 0
        self.final_size: Optional[int] = None

    def receive(self, offset: int, data: bytes, fin: bool) -> bytes:
        """Accept a STREAM frame; returns newly readable in-order bytes."""
        end = offset + len(data)
        if end > self.max_stream_data:
            raise FlowControlError(
                f"stream {self.stream_id}: data beyond MAX_STREAM_DATA"
            )
        if fin:
            if self.final_size is not None and self.final_size != end:
                raise FinalSizeError("conflicting final sizes")
            if self._received and self._received.largest() + 1 > end:
                raise FinalSizeError("data received beyond final size")
            self.final_size = end
        elif self.final_size is not None and end > self.final_size:
            raise FinalSizeError("data received beyond final size")
        if data:
            if offset == self._read_offset and not self._chunks:
                # In-order fast path (the overwhelmingly common case on a
                # bulk transfer): nothing is buffered, so the chunk goes
                # straight to the reader.  This is the app boundary — the
                # one place a memoryview chunk is materialized to bytes.
                self._received.add(offset, end)
                self._read_offset = end
                return data if type(data) is bytes else bytes(data)
            self._received.add(offset, end)
            self._chunks[offset] = data
        return self.read()

    def read(self) -> bytes:
        """Drain contiguous bytes starting at the read offset."""
        if not self._chunks:
            return b""
        out = bytearray()
        # One pass in offset order suffices: once a gap appears, no later
        # chunk can be contiguous either.
        for off in sorted(self._chunks):
            data = self._chunks[off]
            chunk_end = off + len(data)
            if chunk_end <= self._read_offset:
                del self._chunks[off]
            elif off <= self._read_offset:
                skip = self._read_offset - off
                out += data[skip:] if skip else data
                self._read_offset = chunk_end
                del self._chunks[off]
            else:
                break
        return bytes(out)

    def reset(self, final_size: int) -> int:
        """Accept a RESET_STREAM: fix the final size and discard what was
        buffered.  Returns the bytes between the highest offset received
        so far and the final size, which the connection still owes to
        its own flow-control accounting (RFC 9000 §4.5)."""
        if final_size > self.max_stream_data:
            raise FlowControlError(
                f"stream {self.stream_id}: final size beyond MAX_STREAM_DATA"
            )
        if self.final_size is not None and self.final_size != final_size:
            raise FinalSizeError("conflicting final sizes")
        received = self.bytes_received
        if final_size < received:
            raise FinalSizeError("final size below data already received")
        self.final_size = final_size
        self._chunks.clear()
        return final_size - received

    @property
    def is_finished(self) -> bool:
        """Terminal state of the receive half: the final size is known
        and every byte up to it has been handed to the application."""
        return (
            self.final_size is not None
            and self._read_offset >= self.final_size
        )

    @property
    def bytes_received(self) -> int:
        return self._received.largest() + 1 if self._received else 0

    def grant_credit(self, now: float, min_rtt: float) -> int:
        """Retune the window and advance the flow-control limit to
        read_offset + window.

        Returns the new limit (to advertise via MAX_STREAM_DATA) or 0 if
        unchanged: a limit already advertised is never taken back.
        """
        new_limit = self.window.renew(self.bytes_received, self._read_offset,
                                      self.max_stream_data, now, min_rtt)
        if new_limit:
            self.max_stream_data = new_limit
        return new_limit
