"""The Datagram plugin (§4.2): unreliable messages over PQUIC.

Adds the DATAGRAM frame [75]: "only maintains the transported data
boundaries but not transmission order nor reliable delivery".  Lost
DATAGRAM frames are never retransmitted.  The plugin also demonstrates
§2.4: it extends the application-facing API with an *external* protocol
operation (``datagram_send``) and pushes received messages back to the
application asynchronously — together these form the "message socket"
the VPN application uses.

Pluglet split: the decision logic (size admission, statistics, drop
accounting) runs as PRE bytecode; frame object construction/serialization
are host helpers the plugin exposes to its bytecode, like PQUIC exposing
implementation functions to the PRE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.api import HelperEffect
from repro.core.plugin import HostBinding, Plugin, Pluglet, plugin_builder
from repro.quic import frames as F
from repro.quic.wire import Buffer

from .codec import parse_frame, write_frame

PLUGIN_NAME = "org.pquic.datagram"
DATAGRAM_FRAME_TYPE = 0x30

#: Stats block in plugin memory.
ST_AREA = 2
ST_SIZE = 64
OFF_SENT = 0
OFF_RECEIVED = 8
OFF_DROPPED_LOST = 16
OFF_REFUSED_TOO_BIG = 24


@dataclass
class DatagramFrame(F.Frame):
    """DATAGRAM frame with explicit length (draft-pauly-quic-datagram)."""

    data: bytes = b""
    type = DATAGRAM_FRAME_TYPE

    @property
    def ack_eliciting(self) -> bool:
        return True

    @property
    def retransmittable(self) -> bool:
        return False  # unreliable: loss is never repaired

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint_prefixed_bytes(self.data)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "DatagramFrame":
        return cls(data=buf.pull_varint_prefixed_bytes())


def h_reserve(runtime, vm, handle, *_):
    data = runtime.context.raw_args[handle]
    if not isinstance(data, (bytes, bytearray)):
        return 0
    runtime.reserve(DatagramFrame(data=bytes(data)))
    return 1


def h_push(runtime, vm, handle, *_):
    frame = runtime.context.raw_args[handle]
    if isinstance(frame, DatagramFrame):
        runtime.push_message(frame.data)
        return len(frame.data)
    return 0


def h_len(runtime, vm, handle, *_):
    value = runtime.context.raw_args[handle]
    if isinstance(value, DatagramFrame):
        return len(value.data)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    return 0


def h_max_size(runtime, vm, *_):
    return runtime.max_payload - 64  # headers, AEAD tag, frame overhead


#: Host functions exposed to the datagram pluglets; none of them touches
#: the calling pluglet's stack.
HOST = HostBinding(PLUGIN_NAME, helpers=(
    (HelperEffect("dg_reserve"), h_reserve),
    (HelperEffect("dg_push"), h_push),
    (HelperEffect("dg_len"), h_len),
    (HelperEffect("dg_write"), write_frame),
    (HelperEffect("dg_parse"), parse_frame),
    (HelperEffect("dg_max_size"), h_max_size),
), frames=(DatagramFrame,))


@plugin_builder
def build_datagram_plugin() -> Plugin:
    """Assemble the datagram plugin."""
    pluglets = [
        # parse_frame[DATAGRAM]: replace — produce the frame object.
        Pluglet.from_source(
            "parse_datagram",
            "parse_frame",
            "replace",
            f"""
def parse_datagram(buf, frame_type):
    n = dg_parse(buf)
    return n
""",
            helpers=HOST.ids,
            param=DATAGRAM_FRAME_TYPE,
        ),
        # process_frame[DATAGRAM]: replace — deliver to the app, count.
        Pluglet.from_source(
            "process_datagram",
            "process_frame",
            "replace",
            f"""
def process_datagram(frame, ctx):
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_RECEIVED}] = mem64[st + {OFF_RECEIVED}] + 1
    dg_push(frame)
""",
            helpers=HOST.ids,
            param=DATAGRAM_FRAME_TYPE,
        ),
        # write_frame[DATAGRAM]: replace — serialize into the packet.
        Pluglet.from_source(
            "write_datagram",
            "write_frame",
            "replace",
            f"""
def write_datagram(frame, buf):
    dg_write(frame, buf)
""",
            helpers=HOST.ids,
            param=DATAGRAM_FRAME_TYPE,
        ),
        # notify_frame[DATAGRAM]: replace — unreliable, only count losses.
        Pluglet.from_source(
            "notify_datagram",
            "notify_frame",
            "replace",
            f"""
def notify_datagram(frame, acked, pkt):
    if not acked:
        st = get_opaque_data({ST_AREA}, {ST_SIZE})
        mem64[st + {OFF_DROPPED_LOST}] = mem64[st + {OFF_DROPPED_LOST}] + 1
""",
            helpers=HOST.ids,
            param=DATAGRAM_FRAME_TYPE,
        ),
        # datagram_send: external — the app-facing message-socket entry.
        Pluglet.from_source(
            "datagram_send",
            "datagram_send",
            "external",
            f"""
def datagram_send(payload):
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    size = dg_len(payload)
    if size == 0 or size > dg_max_size():
        mem64[st + {OFF_REFUSED_TOO_BIG}] = mem64[st + {OFF_REFUSED_TOO_BIG}] + 1
        return 0
    dg_reserve(payload)
    mem64[st + {OFF_SENT}] = mem64[st + {OFF_SENT}] + 1
    return size
""",
            helpers=HOST.ids,
        ),
        # datagram_max_size: external — lets the app size its messages.
        Pluglet.from_source(
            "datagram_max_size",
            "datagram_max_size",
            "external",
            """
def datagram_max_size():
    return dg_max_size()
""",
            helpers=HOST.ids,
        ),
    ]
    return Plugin(PLUGIN_NAME, pluglets)


class DatagramSocket:
    """The message socket the VPN application reads/writes (§4.2).

    ``send`` queues an unreliable message; incoming messages go to
    ``on_message`` (asynchronous push from the plugin, §2.4)."""

    def __init__(self, conn, on_message: Optional[Callable[[bytes], None]] = None):
        if PLUGIN_NAME not in conn.plugins:
            raise RuntimeError("datagram plugin not attached to connection")
        self.conn = conn
        if on_message is not None:
            conn.message_handlers[PLUGIN_NAME] = on_message

    def send(self, data: bytes) -> int:
        """Queue one message; returns bytes accepted (0 = refused)."""
        return self.conn.run_external_protoop("datagram_send", None, bytes(data))

    def max_size(self) -> int:
        return self.conn.run_external_protoop("datagram_max_size", None)
