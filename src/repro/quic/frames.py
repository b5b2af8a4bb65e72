"""QUIC frames: dataclasses, wire codecs and an extensible registry.

The registry is the wire-level half of PQUIC's extensibility: frame parsing
and processing are *parameterized protocol operations* keyed by frame type,
so a plugin that registers a new frame type (DATAGRAM, MP_ACK, FEC...) gets
parsed, processed and written through exactly the same path as core frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Type

from .errors import FrameEncodingError
from .wire import Buffer, RangeSet, varint_size

# Core frame types (RFC 9000 numbering).
PADDING = 0x00
PING = 0x01
ACK = 0x02
RESET_STREAM = 0x04
STOP_SENDING = 0x05
CRYPTO = 0x06
STREAM_BASE = 0x08  # 0x08..0x0f with OFF/LEN/FIN bits
MAX_DATA = 0x10
MAX_STREAM_DATA = 0x11
MAX_STREAMS = 0x12
DATA_BLOCKED = 0x14
STREAM_DATA_BLOCKED = 0x15
NEW_CONNECTION_ID = 0x18
PATH_CHALLENGE = 0x1A
PATH_RESPONSE = 0x1B
CONNECTION_CLOSE = 0x1C
HANDSHAKE_DONE = 0x1E

#: Frame types that do NOT elicit acknowledgements.
NON_ACK_ELICITING = {PADDING, ACK, CONNECTION_CLOSE}


#: Scratch buffer of :meth:`Frame.encoded_size`.
_size_buf = Buffer(bytearray())


class Frame:
    """Base class; concrete frames are dataclasses below."""

    type: int = -1

    @property
    def ack_eliciting(self) -> bool:
        return self.type not in NON_ACK_ELICITING

    @property
    def retransmittable(self) -> bool:
        """Whether loss of this frame should trigger retransmission logic.

        Unreliable extension frames (e.g. DATAGRAM, §4.2) override this."""
        return self.ack_eliciting

    def serialize(self, buf: Buffer) -> None:
        raise NotImplementedError

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "Frame":
        raise NotImplementedError

    def to_bytes(self) -> bytes:
        buf = Buffer()
        self.serialize(buf)
        return buf.data()

    def encoded_size(self) -> int:
        """``len(self.to_bytes())``.  Frames the scheduler sizes on every
        packet (STREAM, ACK) override this with arithmetic on the field
        widths; the rest are measured in a reused scratch buffer."""
        _size_buf.clear()
        self.serialize(_size_buf)
        return len(_size_buf)


@dataclass
class PaddingFrame(Frame):
    length: int = 1
    type = PADDING

    def serialize(self, buf: Buffer) -> None:
        buf.push_bytes(b"\x00" * self.length)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PaddingFrame":
        # The type byte is the first zero of the run.
        return cls(length=1 + buf.skip_zeros())


@dataclass
class PingFrame(Frame):
    type = PING

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(PING)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PingFrame":
        return cls()


@dataclass
class AckFrame(Frame):
    """ACK with ranges, descending from the largest acknowledged."""

    ranges: RangeSet
    ack_delay: float = 0.0
    type = ACK

    def serialize(self, buf: Buffer) -> None:
        if not self.ranges:
            raise FrameEncodingError("ACK frame with no ranges")
        buf.push_varint(ACK)
        desc = self.ranges.descending()
        largest = desc[0].stop - 1
        buf.push_varint(largest)
        buf.push_varint(int(self.ack_delay * 1_000_000))
        buf.push_varint(len(desc) - 1)
        first = desc[0]
        buf.push_varint(first.stop - 1 - first.start)
        prev_start = first.start
        for r in desc[1:]:
            gap = prev_start - r.stop - 1
            if gap < 0:
                raise FrameEncodingError("ACK ranges overlap")
            buf.push_varint(gap)
            buf.push_varint(r.stop - 1 - r.start)
            prev_start = r.start
        return

    def encoded_size(self) -> int:
        """Mirrors :meth:`serialize` field by field, errors included."""
        if not self.ranges:
            raise FrameEncodingError("ACK frame with no ranges")
        desc = self.ranges.descending()
        first = desc[0]
        size = (1 + varint_size(first.stop - 1)
                + varint_size(int(self.ack_delay * 1_000_000))
                + varint_size(len(desc) - 1)
                + varint_size(first.stop - 1 - first.start))
        prev_start = first.start
        for r in desc[1:]:
            gap = prev_start - r.stop - 1
            if gap < 0:
                raise FrameEncodingError("ACK ranges overlap")
            size += varint_size(gap) + varint_size(r.stop - 1 - r.start)
            prev_start = r.start
        return size

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "AckFrame":
        largest = buf.pull_varint()
        ack_delay = buf.pull_varint() / 1_000_000
        count = buf.pull_varint()
        first_len = buf.pull_varint()
        ranges = RangeSet()
        end = largest + 1
        start = end - first_len - 1
        if start < 0:
            raise FrameEncodingError("ACK first range underflows")
        ranges.add(start, end)
        for _ in range(count):
            gap = buf.pull_varint()
            length = buf.pull_varint()
            end = start - gap - 1
            start = end - length - 1
            if start < 0:
                raise FrameEncodingError("ACK range underflows")
            ranges.add(start, end)
        return cls(ranges=ranges, ack_delay=ack_delay)


@dataclass
class ResetStreamFrame(Frame):
    stream_id: int
    error_code: int
    final_size: int
    type = RESET_STREAM

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(RESET_STREAM)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.error_code)
        buf.push_varint(self.final_size)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "ResetStreamFrame":
        return cls(buf.pull_varint(), buf.pull_varint(), buf.pull_varint())


@dataclass
class StopSendingFrame(Frame):
    stream_id: int
    error_code: int
    type = STOP_SENDING

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(STOP_SENDING)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.error_code)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "StopSendingFrame":
        return cls(buf.pull_varint(), buf.pull_varint())


@dataclass
class CryptoFrame(Frame):
    offset: int
    data: bytes
    type = CRYPTO

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(CRYPTO)
        buf.push_varint(self.offset)
        buf.push_varint_prefixed_bytes(self.data)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "CryptoFrame":
        # Zero-copy: ``data`` is a view into the packet plaintext (fresh
        # bytes per packet), materialized only at the handshake layer.
        offset = buf.pull_varint()
        return cls(offset, buf.pull_view(buf.pull_varint()))


@dataclass
class StreamFrame(Frame):
    stream_id: int
    offset: int = 0
    data: bytes = b""
    fin: bool = False

    @property
    def type(self) -> int:  # type: ignore[override]
        t = STREAM_BASE | 0x02  # always encode LEN
        if self.offset:
            t |= 0x04
        if self.fin:
            t |= 0x01
        return t

    @property
    def ack_eliciting(self) -> bool:
        return True

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.stream_id)
        if self.offset:
            buf.push_varint(self.offset)
        buf.push_varint_prefixed_bytes(self.data)

    def encoded_size(self) -> int:
        """``len(self.to_bytes())`` from the field widths alone, so the
        scheduler can size a frame without copying its payload."""
        length = len(self.data)
        size = 1 + varint_size(self.stream_id) + varint_size(length) + length
        if self.offset:
            size += varint_size(self.offset)
        return size

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "StreamFrame":
        stream_id = buf.pull_varint()
        offset = buf.pull_varint() if frame_type & 0x04 else 0
        # Zero-copy: ``data`` aliases the packet plaintext; it is only
        # materialized to bytes at the app boundary (ReceiveStream).
        if frame_type & 0x02:
            data = buf.pull_view(buf.pull_varint())
        else:
            data = buf.pull_view(buf.remaining)
        return cls(stream_id=stream_id, offset=offset, data=data,
                   fin=bool(frame_type & 0x01))


@dataclass
class MaxDataFrame(Frame):
    maximum: int
    type = MAX_DATA

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(MAX_DATA)
        buf.push_varint(self.maximum)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "MaxDataFrame":
        return cls(buf.pull_varint())


@dataclass
class MaxStreamDataFrame(Frame):
    stream_id: int
    maximum: int
    type = MAX_STREAM_DATA

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(MAX_STREAM_DATA)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.maximum)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "MaxStreamDataFrame":
        return cls(buf.pull_varint(), buf.pull_varint())


@dataclass
class MaxStreamsFrame(Frame):
    maximum: int
    type = MAX_STREAMS

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(MAX_STREAMS)
        buf.push_varint(self.maximum)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "MaxStreamsFrame":
        return cls(buf.pull_varint())


@dataclass
class DataBlockedFrame(Frame):
    limit: int
    type = DATA_BLOCKED

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(DATA_BLOCKED)
        buf.push_varint(self.limit)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "DataBlockedFrame":
        return cls(buf.pull_varint())


@dataclass
class StreamDataBlockedFrame(Frame):
    stream_id: int
    limit: int
    type = STREAM_DATA_BLOCKED

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(STREAM_DATA_BLOCKED)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.limit)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "StreamDataBlockedFrame":
        return cls(buf.pull_varint(), buf.pull_varint())


@dataclass
class NewConnectionIdFrame(Frame):
    sequence: int
    connection_id: bytes
    #: §10.3: the stateless reset token the issuer will use for this CID
    #: (empty when the issuer does not support stateless reset).
    reset_token: bytes = b""
    type = NEW_CONNECTION_ID

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(NEW_CONNECTION_ID)
        buf.push_varint(self.sequence)
        buf.push_varint_prefixed_bytes(self.connection_id)
        buf.push_varint_prefixed_bytes(self.reset_token)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "NewConnectionIdFrame":
        return cls(buf.pull_varint(), buf.pull_varint_prefixed_bytes(),
                   buf.pull_varint_prefixed_bytes())


@dataclass
class PathChallengeFrame(Frame):
    data: bytes
    type = PATH_CHALLENGE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(PATH_CHALLENGE)
        buf.push_bytes(self.data[:8].ljust(8, b"\x00"))

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PathChallengeFrame":
        return cls(buf.pull_bytes(8))


@dataclass
class PathResponseFrame(Frame):
    data: bytes
    type = PATH_RESPONSE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(PATH_RESPONSE)
        buf.push_bytes(self.data[:8].ljust(8, b"\x00"))

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PathResponseFrame":
        return cls(buf.pull_bytes(8))


@dataclass
class ConnectionCloseFrame(Frame):
    error_code: int
    reason: str = ""
    frame_type: int = 0
    type = CONNECTION_CLOSE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(CONNECTION_CLOSE)
        buf.push_varint(self.error_code)
        buf.push_varint(self.frame_type)
        buf.push_varint_prefixed_bytes(self.reason.encode("utf-8"))

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "ConnectionCloseFrame":
        code = buf.pull_varint()
        ftype = buf.pull_varint()
        reason = buf.pull_varint_prefixed_bytes().decode("utf-8", "replace")
        return cls(error_code=code, reason=reason, frame_type=ftype)


@dataclass
class HandshakeDoneFrame(Frame):
    type = HANDSHAKE_DONE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(HANDSHAKE_DONE)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "HandshakeDoneFrame":
        return cls()


class FrameRegistry:
    """Maps frame types to frame classes; plugins extend it per connection."""

    def __init__(self) -> None:
        self._by_type: dict[int, Type[Frame]] = {}
        self._register_core()

    def _register_core(self) -> None:
        self.register(PADDING, PaddingFrame)
        self.register(PING, PingFrame)
        self.register(ACK, AckFrame)
        self.register(RESET_STREAM, ResetStreamFrame)
        self.register(STOP_SENDING, StopSendingFrame)
        self.register(CRYPTO, CryptoFrame)
        for t in range(STREAM_BASE, STREAM_BASE + 8):
            self.register(t, StreamFrame)
        self.register(MAX_DATA, MaxDataFrame)
        self.register(MAX_STREAM_DATA, MaxStreamDataFrame)
        self.register(MAX_STREAMS, MaxStreamsFrame)
        self.register(DATA_BLOCKED, DataBlockedFrame)
        self.register(STREAM_DATA_BLOCKED, StreamDataBlockedFrame)
        self.register(NEW_CONNECTION_ID, NewConnectionIdFrame)
        self.register(PATH_CHALLENGE, PathChallengeFrame)
        self.register(PATH_RESPONSE, PathResponseFrame)
        self.register(CONNECTION_CLOSE, ConnectionCloseFrame)
        self.register(CONNECTION_CLOSE + 1, ConnectionCloseFrame)  # app close
        self.register(HANDSHAKE_DONE, HandshakeDoneFrame)

    def register(self, frame_type: int, frame_class: Type[Frame]) -> None:
        self._by_type[frame_type] = frame_class

    def unregister(self, frame_type: int) -> None:
        self._by_type.pop(frame_type, None)

    def known(self, frame_type: int) -> bool:
        return frame_type in self._by_type

    def lookup(self, frame_type: int) -> Type[Frame]:
        try:
            return self._by_type[frame_type]
        except KeyError:
            raise FrameEncodingError(f"unknown frame type 0x{frame_type:x}")

    def parse_one(self, buf: Buffer) -> tuple[int, Frame]:
        """Parse a single frame; returns (frame_type, frame)."""
        frame_type = buf.pull_varint()
        cls = self.lookup(frame_type)
        return frame_type, cls.parse(buf, frame_type)

    def parse_all(self, payload: bytes) -> list[tuple[int, Frame]]:
        buf = Buffer(payload)
        out = []
        while not buf.eof():
            out.append(self.parse_one(buf))
        return out


def serialize_frames(frames: list, out: Optional[Buffer] = None) -> bytes:
    """Serialize frames back-to-back.

    Pass a reusable ``out`` buffer (cleared first) to skip the per-call
    allocation on hot encode paths.
    """
    if out is None:
        out = Buffer()
    else:
        out.clear()
    for f in frames:
        f.serialize(out)
    return out.data()
