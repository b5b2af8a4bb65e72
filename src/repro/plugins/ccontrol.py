"""A pluggable congestion controller (§6 / CCP [71]).

"Although we did not describe it in this paper, a new congestion
controller could easily be implemented as a protocol plugin."  This module
does exactly that: an AIMD controller whose entire control law runs as PRE
bytecode, replacing the ``congestion_on_ack`` / ``congestion_on_loss``
protocol operations and steering the window through the ``set`` API's
``cwnd`` field.

A replacement moves the window and nothing else.  The host has already
released the packet's bytes from flight when it runs either operation,
and afterwards it publishes the new window (``cc_window_updated``, the
tracer's ``congestion_window_updated``) exactly as it does for NewReno.

Two variants:

* ``aimd`` — classic additive-increase (one MSS per window of ACKs),
  multiplicative-decrease (halving) with a slow-start phase;
* ``fixed`` — a constant-window controller (useful for experiments that
  need a non-reactive sender).
"""

from __future__ import annotations

from repro.core.api import FLD_CWND, FLD_NB_PATHS, ApiViolation, HelperEffect
from repro.core.plugin import HostBinding, Plugin, Pluglet, plugin_builder

PLUGIN_BASE_NAME = "org.pquic.ccontrol"
MSS = 1280
#: Window of the ``fixed`` variant.
FIXED_WINDOW = 64 * 1024

#: Plugin-memory state block.
ST_AREA = 5
ST_SIZE = 64
OFF_SSTHRESH = 0
OFF_ACKED_SINCE_GROWTH = 8
OFF_LOSS_EVENTS = 16
OFF_ACK_EVENTS = 24


def h_pkt_size(runtime, vm, handle, *_):
    ctx = runtime.context
    pkt = ctx.raw_args[handle] if ctx else None
    return getattr(pkt, "size", 0)


def _set_fixed_window(runtime) -> None:
    """The ``fixed`` variant sets its window when it attaches, through the
    ``cwnd`` field as a pluglet's ``set`` does: not at all if the host's
    field policy forbids plugins writing it."""
    try:
        for index in range(runtime.get_field(FLD_NB_PATHS, 0)):
            runtime.set_field(FLD_CWND, index, FIXED_WINDOW)
    except ApiViolation:
        return


#: ``cc_pkt_size`` does not touch the calling pluglet's stack.
_HELPERS = ((HelperEffect("cc_pkt_size"), h_pkt_size),)
HOST = HostBinding(PLUGIN_BASE_NAME, helpers=_HELPERS)
HostBinding(f"{PLUGIN_BASE_NAME}.fixed", helpers=_HELPERS,
            on_attach=_set_fixed_window)

# congestion_on_ack(pkt, path_index): post wrapper gives marshaled args;
# replace receives (pkt, path_index) -> pkt is a handle, size via input.
_AIMD_ON_ACK = f"""
def cc_aimd_on_ack(pkt, path_index):
    size = cc_pkt_size(pkt)
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
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_LOSS_EVENTS}] = mem64[st + {OFF_LOSS_EVENTS}] + 1
    cwnd = get({FLD_CWND}, path_index)
    half = cwnd // 2
    set({FLD_CWND}, path_index, half)
    mem64[st + {OFF_SSTHRESH}] = half
    return 0
"""

_FIXED_ON_ACK = """
def cc_fixed_on_ack(pkt, path_index):
    return 0
"""

_FIXED_ON_LOSS = f"""
def cc_fixed_on_loss(pkt, path_index):
    st = get_opaque_data({ST_AREA}, {ST_SIZE})
    mem64[st + {OFF_LOSS_EVENTS}] = mem64[st + {OFF_LOSS_EVENTS}] + 1
    return 0
"""


@plugin_builder
def build_ccontrol_plugin(variant: str = "aimd") -> Plugin:
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
                            on_ack_src, helpers=HOST.ids),
        Pluglet.from_source(on_loss_name, "congestion_on_loss", "replace",
                            on_loss_src, helpers=HOST.ids),
    ]
    return Plugin(f"{PLUGIN_BASE_NAME}.{variant}", pluglets)
