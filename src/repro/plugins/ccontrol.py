"""A pluggable congestion controller (§6 / CCP [71]).

"Although we did not describe it in this paper, a new congestion
controller could easily be implemented as a protocol plugin."  This module
does exactly that: an AIMD controller whose entire control law runs as PRE
bytecode, replacing the ``congestion_on_ack`` / ``congestion_on_loss``
protocol operations and steering the window through the ``set`` API's
``cwnd`` field.

Two variants:

* ``aimd`` — classic additive-increase (one MSS per window of ACKs),
  multiplicative-decrease (halving) with a slow-start phase;
* ``fixed`` — a constant-window controller (useful for experiments that
  need a non-reactive sender).
"""

from __future__ import annotations

from repro.core.api import (
    FLD_BYTES_IN_FLIGHT,
    FLD_CWND,
    H_PLUGIN_BASE,
    HelperEffect,
)
from repro.core.plugin import Plugin, Pluglet, register_host_resolver

PLUGIN_BASE_NAME = "org.pquic.ccontrol"
MSS = 1280

H_CC_RELEASE = H_PLUGIN_BASE + 0
H_CC_PKT_SIZE = H_PLUGIN_BASE + 1

CC_HELPERS = {"cc_release": H_CC_RELEASE, "cc_pkt_size": H_CC_PKT_SIZE}

#: Declared for the JIT: none of them touches the calling pluglet's stack.
CC_HELPER_EFFECTS = {
    hid: HelperEffect(name) for name, hid in CC_HELPERS.items()}

#: Plugin-memory state block.
ST_AREA = 5
ST_SIZE = 64
OFF_SSTHRESH = 0
OFF_ACKED_SINCE_GROWTH = 8
OFF_LOSS_EVENTS = 16
OFF_ACK_EVENTS = 24


def _host_helpers(runtime) -> dict:
    def h_release(vm, path_index, size, *_):
        """Book-keep bytes leaving flight (the controller owns only the
        window; in-flight accounting stays with the host)."""
        conn = runtime.conn
        if 0 <= path_index < len(conn.paths):
            cc = conn.paths[path_index].cc
            cc.bytes_in_flight = max(0, cc.bytes_in_flight - size)
            return cc.bytes_in_flight
        return 0

    def h_pkt_size(vm, handle, *_):
        ctx = runtime.context
        pkt = ctx.raw_args[handle] if ctx else None
        return getattr(pkt, "size", 0)

    return {H_CC_RELEASE: h_release, H_CC_PKT_SIZE: h_pkt_size}


register_host_resolver(
    PLUGIN_BASE_NAME, lambda name: (_host_helpers, None, CC_HELPER_EFFECTS))

# congestion_on_ack(pkt, path_index): post wrapper gives marshaled args;
# replace receives (pkt, path_index) -> pkt is a handle, size via input.
_AIMD_ON_ACK = f"""
def cc_aimd_on_ack(pkt, path_index):
    size = cc_pkt_size(pkt)
    cc_release(path_index, size)
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_ACK_EVENTS}] = mem64[st + {OFF_ACK_EVENTS}] + 1
    cwnd = get({FLD_CWND}, path_index)
    ssthresh = mem64[st + {OFF_SSTHRESH}]
    if ssthresh == 0 or cwnd < ssthresh:
        set({FLD_CWND}, path_index, cwnd + size)
        return 0
    acked = mem64[st + {OFF_ACKED_SINCE_GROWTH}] + size
    if acked >= cwnd:
        set({FLD_CWND}, path_index, cwnd + {MSS})
        acked = 0
    mem64[st + {OFF_ACKED_SINCE_GROWTH}] = acked
    return 0
"""

_AIMD_ON_LOSS = f"""
def cc_aimd_on_loss(pkt, path_index):
    size = cc_pkt_size(pkt)
    cc_release(path_index, size)
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_LOSS_EVENTS}] = mem64[st + {OFF_LOSS_EVENTS}] + 1
    cwnd = get({FLD_CWND}, path_index)
    half = cwnd // 2
    set({FLD_CWND}, path_index, half)
    mem64[st + {OFF_SSTHRESH}] = half
    return 0
"""

_FIXED_ON_ACK = f"""
def cc_fixed_on_ack(pkt, path_index):
    size = cc_pkt_size(pkt)
    cc_release(path_index, size)
    return 0
"""

_FIXED_ON_LOSS = f"""
def cc_fixed_on_loss(pkt, path_index):
    size = cc_pkt_size(pkt)
    cc_release(path_index, size)
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_LOSS_EVENTS}] = mem64[st + {OFF_LOSS_EVENTS}] + 1
    return 0
"""


def build_ccontrol_plugin(variant: str = "aimd",
                          fixed_window: int = 64 * 1024) -> Plugin:
    """Assemble the congestion-control plugin.

    The replace pluglets receive ``(pkt, path_index)``; the packet's size
    is fetched through the ``cc_pkt_size`` host helper from the opaque
    SentPacket handle."""
    if variant == "aimd":
        on_ack_src, on_ack_name = _AIMD_ON_ACK, "cc_aimd_on_ack"
        on_loss_src, on_loss_name = _AIMD_ON_LOSS, "cc_aimd_on_loss"
    elif variant == "fixed":
        on_ack_src, on_ack_name = _FIXED_ON_ACK, "cc_fixed_on_ack"
        on_loss_src, on_loss_name = _FIXED_ON_LOSS, "cc_fixed_on_loss"
    else:
        raise ValueError(f"unknown variant {variant!r}")

    pluglets = [
        Pluglet.from_source(on_ack_name, "congestion_on_ack", "replace",
                            on_ack_src, helpers=CC_HELPERS),
        Pluglet.from_source(on_loss_name, "congestion_on_loss", "replace",
                            on_loss_src, helpers=CC_HELPERS),
    ]
    name = f"{PLUGIN_BASE_NAME}.{variant}"
    plugin = Plugin(name, pluglets, host_helpers=_host_helpers,
                    helper_effects=CC_HELPER_EFFECTS)
    if variant == "fixed":
        original_attach = plugin  # set window at instantiation

        def frame_registrar(conn):
            for path in conn.paths:
                path.cc.cwnd = fixed_window

        plugin.frame_registrar = frame_registrar
    return plugin
