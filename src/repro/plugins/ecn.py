"""The ECN plugin: Explicit Congestion Notification support (§4).

"With less than 100 lines of C code a PQUIC plugin can add the equivalent
of Tail Loss Probe in TCP, or support for Explicit Congestion Notification
[102]."  This module is that ECN plugin.

Design: the receiver counts CE-marked packets (exposed by the host as a
connection field) and, whenever the count grows, books an ECN_FEEDBACK
frame carrying the cumulative count.  The sender compares the echoed count
against the last one it has reacted to and, on growth, halves its
congestion window — a congestion response *without* packet loss, which is
ECN's whole point.  All decision logic is PRE bytecode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import (
    FLD_CWND,
    FLD_ECN_CE_RECEIVED,
    FLD_SRTT_US,
    H_PLUGIN_BASE,
    HelperEffect,
)
from repro.core.plugin import Plugin, Pluglet, register_host_resolver
from repro.quic import frames as F
from repro.quic.connection import ReservedFrame
from repro.quic.wire import Buffer

PLUGIN_NAME = "org.pquic.ecn"
ECN_FEEDBACK_FRAME_TYPE = 0x49

H_ECN_RESERVE = H_PLUGIN_BASE + 0
H_ECN_PARSE = H_PLUGIN_BASE + 1
H_ECN_WRITE = H_PLUGIN_BASE + 2
H_ECN_FRAME_COUNT = H_PLUGIN_BASE + 3

ECN_HELPERS = {
    "ecn_reserve": H_ECN_RESERVE,
    "ecn_parse": H_ECN_PARSE,
    "ecn_write": H_ECN_WRITE,
    "ecn_frame_count": H_ECN_FRAME_COUNT,
}

#: Declared for the JIT: none of them touches the calling pluglet's stack.
ECN_HELPER_EFFECTS = {
    hid: HelperEffect(name) for name, hid in ECN_HELPERS.items()}

ST_AREA = 6
ST_SIZE = 40
OFF_LAST_REPORTED = 0   # receiver: CE count last fed back
OFF_LAST_REACTED = 8    # sender: CE count last responded to
OFF_REDUCTIONS = 16     # sender: number of ECN-driven window cuts
OFF_LAST_CUT_US = 24    # sender: time of the last cut (once per RTT)


@dataclass
class EcnFeedbackFrame(F.Frame):
    """Echoes the cumulative count of CE-marked packets received."""

    ce_count: int = 0
    type = ECN_FEEDBACK_FRAME_TYPE

    @property
    def ack_eliciting(self) -> bool:
        return False  # feedback, like ACK

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.ce_count)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "EcnFeedbackFrame":
        return cls(ce_count=buf.pull_varint())


def _host_helpers(runtime) -> dict:
    def h_reserve(vm, count, *_):
        runtime.conn.reserve_frames([
            ReservedFrame(
                frame=EcnFeedbackFrame(ce_count=count),
                plugin=PLUGIN_NAME,
                retransmittable=False,
                congestion_controlled=False,
            )
        ])
        return 1

    def h_parse(vm, buf_handle, *_):
        frame = EcnFeedbackFrame.parse(
            runtime.context.raw_args[buf_handle], ECN_FEEDBACK_FRAME_TYPE)
        runtime.set_result(frame)
        return frame.ce_count

    def h_write(vm, frame_handle, buf_handle, *_):
        ctx = runtime.context
        ctx.raw_args[frame_handle].serialize(ctx.raw_args[buf_handle])
        return 0

    def h_frame_count(vm, frame_handle, *_):
        frame = runtime.context.raw_args[frame_handle]
        return frame.ce_count if isinstance(frame, EcnFeedbackFrame) else 0

    return {
        H_ECN_RESERVE: h_reserve,
        H_ECN_PARSE: h_parse,
        H_ECN_WRITE: h_write,
        H_ECN_FRAME_COUNT: h_frame_count,
    }


def _register_frames(conn) -> None:
    conn.frame_registry.register(ECN_FEEDBACK_FRAME_TYPE, EcnFeedbackFrame)


register_host_resolver(
    PLUGIN_NAME,
    lambda name: (_host_helpers, _register_frames, ECN_HELPER_EFFECTS),
)


def build_ecn_plugin() -> Plugin:
    pluglets = [
        # Receiver: feed back whenever the CE count grows.
        Pluglet.from_source(
            "ecn_feedback", "packet_received_event", "post",
            f"""
def ecn_feedback(epoch, path_id, pn):
    ce = get({FLD_ECN_CE_RECEIVED}, 0)
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    if ce > mem64[st + {OFF_LAST_REPORTED}]:
        ecn_reserve(ce)
        mem64[st + {OFF_LAST_REPORTED}] = ce
""",
            helpers=ECN_HELPERS),
        # Sender: frame handling + congestion response.
        Pluglet.from_source(
            "parse_ecn", "parse_frame", "replace",
            """
def parse_ecn(buf, frame_type):
    return ecn_parse(buf)
""",
            helpers=ECN_HELPERS, param=ECN_FEEDBACK_FRAME_TYPE),
        Pluglet.from_source(
            "write_ecn", "write_frame", "replace",
            """
def write_ecn(frame, buf):
    ecn_write(frame, buf)
""",
            helpers=ECN_HELPERS, param=ECN_FEEDBACK_FRAME_TYPE),
        Pluglet.from_source(
            "process_ecn", "process_frame", "replace",
            f"""
def process_ecn(frame, ctx):
    count = ecn_frame_count(frame)
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    if count > mem64[st + {OFF_LAST_REACTED}]:
        mem64[st + {OFF_LAST_REACTED}] = count
        now = get_time_us()
        srtt = get({FLD_SRTT_US}, 0)
        if now - mem64[st + {OFF_LAST_CUT_US}] > srtt:
            # RFC 3168 semantics: at most one reduction per RTT.
            cwnd = get({FLD_CWND}, 0)
            set({FLD_CWND}, 0, cwnd // 2)
            mem64[st + {OFF_REDUCTIONS}] = mem64[st + {OFF_REDUCTIONS}] + 1
            mem64[st + {OFF_LAST_CUT_US}] = now
""",
            helpers=ECN_HELPERS, param=ECN_FEEDBACK_FRAME_TYPE),
    ]
    return Plugin(
        PLUGIN_NAME,
        pluglets,
        host_helpers=_host_helpers,
        helper_effects=ECN_HELPER_EFFECTS,
        frame_registrar=_register_frames,
    )
