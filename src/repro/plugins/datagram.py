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

from repro.core.api import H_PLUGIN_BASE, HelperEffect
from repro.core.plugin import Plugin, Pluglet
from repro.quic import frames as F
from repro.quic.connection import ReservedFrame
from repro.quic.wire import Buffer

PLUGIN_NAME = "org.pquic.datagram"
DATAGRAM_FRAME_TYPE = 0x30

#: Plugin-specific helpers.
H_DG_RESERVE = H_PLUGIN_BASE + 0
H_DG_PUSH = H_PLUGIN_BASE + 1
H_DG_LEN = H_PLUGIN_BASE + 2
H_DG_WRITE = H_PLUGIN_BASE + 3
H_DG_PARSE = H_PLUGIN_BASE + 4
H_DG_MAX_SIZE = H_PLUGIN_BASE + 5

DG_HELPERS = {
    "dg_reserve": H_DG_RESERVE,
    "dg_push": H_DG_PUSH,
    "dg_len": H_DG_LEN,
    "dg_write": H_DG_WRITE,
    "dg_parse": H_DG_PARSE,
    "dg_max_size": H_DG_MAX_SIZE,
}

#: Declared for the JIT: none of them touches the calling pluglet's stack.
DG_HELPER_EFFECTS = {
    hid: HelperEffect(name) for name, hid in DG_HELPERS.items()}

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


def _host_helpers(runtime) -> dict:
    """Host functions exposed to the datagram pluglets."""

    def max_datagram_size() -> int:
        budget = runtime.conn.configuration.max_udp_payload_size
        return budget - 64  # headers, AEAD tag, frame overhead

    def h_reserve(vm, handle, *_):
        ctx = runtime.context
        data = ctx.raw_args[handle]
        if not isinstance(data, (bytes, bytearray)):
            return 0
        runtime.conn.reserve_frames([
            ReservedFrame(
                frame=DatagramFrame(data=bytes(data)),
                plugin=PLUGIN_NAME,
                retransmittable=False,
                congestion_controlled=True,
            )
        ])
        return 1

    def h_push(vm, handle, *_):
        ctx = runtime.context
        frame = ctx.raw_args[handle]
        if isinstance(frame, DatagramFrame):
            runtime.conn.push_message_to_app(PLUGIN_NAME, frame.data)
            return len(frame.data)
        return 0

    def h_len(vm, handle, *_):
        ctx = runtime.context
        value = ctx.raw_args[handle]
        if isinstance(value, DatagramFrame):
            return len(value.data)
        if isinstance(value, (bytes, bytearray)):
            return len(value)
        return 0

    def h_write(vm, frame_handle, buf_handle, *_):
        ctx = runtime.context
        frame = ctx.raw_args[frame_handle]
        buf = ctx.raw_args[buf_handle]
        frame.serialize(buf)
        return 0

    def h_parse(vm, buf_handle, *_):
        ctx = runtime.context
        buf = ctx.raw_args[buf_handle]
        frame = DatagramFrame.parse(buf, DATAGRAM_FRAME_TYPE)
        runtime.set_result(frame)
        return len(frame.data)

    def h_max(vm, *_):
        return max_datagram_size()

    return {
        H_DG_RESERVE: h_reserve,
        H_DG_PUSH: h_push,
        H_DG_LEN: h_len,
        H_DG_WRITE: h_write,
        H_DG_PARSE: h_parse,
        H_DG_MAX_SIZE: h_max,
    }


def _register_frames(conn) -> None:
    conn.frame_registry.register(DATAGRAM_FRAME_TYPE, DatagramFrame)


from repro.core.plugin import register_host_resolver

register_host_resolver(
    PLUGIN_NAME,
    lambda name: (_host_helpers, _register_frames, DG_HELPER_EFFECTS),
)


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
            helpers=DG_HELPERS,
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
            helpers=DG_HELPERS,
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
            helpers=DG_HELPERS,
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
            helpers=DG_HELPERS,
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
            helpers=DG_HELPERS,
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
            helpers=DG_HELPERS,
        ),
    ]
    return Plugin(
        PLUGIN_NAME,
        pluglets,
        host_helpers=_host_helpers,
        helper_effects=DG_HELPER_EFFECTS,
        frame_registrar=_register_frames,
    )


class DatagramSocket:
    """The message socket the VPN application reads/writes (§4.2).

    ``send`` queues an unreliable message; incoming messages arrive via
    the receive callback (asynchronous push from the plugin, §2.4)."""

    def __init__(self, conn, on_message: Optional[Callable[[bytes], None]] = None):
        if PLUGIN_NAME not in conn.plugins:
            raise RuntimeError("datagram plugin not attached to connection")
        self.conn = conn
        self.on_message = on_message
        previous = conn.on_plugin_message

        def dispatch(plugin_name: str, data: bytes) -> None:
            if plugin_name == PLUGIN_NAME:
                if self.on_message is not None:
                    self.on_message(data)
            elif previous is not None:
                previous(plugin_name, data)

        conn.on_plugin_message = dispatch

    def send(self, data: bytes) -> int:
        """Queue one message; returns bytes accepted (0 = refused)."""
        return self.conn.run_external_protoop("datagram_send", None, bytes(data))

    def max_size(self) -> int:
        return self.conn.run_external_protoop("datagram_max_size", None)
