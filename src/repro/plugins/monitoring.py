"""The monitoring plugin (§4.1).

"Our monitoring plugin adds passive pluglets, i.e. pluglets that hook to
pre and post anchors, to several protocol operations in PQUIC to record
the performance indicators (PI) such as the bytes/packets sent/received,
lost, received out-of-order, etc.  A set of PIs are recorded during the
handshake and a second are updated while the connection is active.  Our
plugin exports these PIs to a local daemon."

All fourteen pluglets (the Table-2 count) are passive, written in
restricted Python, compiled to PRE bytecode, and keep their PI block in
the plugin's dedicated memory through ``get_opaque_data``.  Reports are
pushed to the application/daemon as a flat block of 64-bit counters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.api import (
    FLD_ACKS_RECEIVED,
    FLD_BYTES_RECEIVED,
    FLD_BYTES_SENT,
    FLD_PACKETS_LOST,
    FLD_PACKETS_RECEIVED,
    FLD_PACKETS_SENT,
    FLD_SPURIOUS_RECEIVED,
    FLD_SRTT_US,
)
from repro.core.plugin import Plugin, Pluglet, plugin_builder

PLUGIN_NAME = "org.pquic.monitoring"

#: PI block layout (byte offsets into the opaque area, 8 bytes each).
PI_AREA_ID = 1
PI_SIZE = 256
OFF_PACKETS_SENT = 0
OFF_PACKETS_RECEIVED = 8
OFF_PACKETS_LOST = 16
OFF_RTT_LATEST = 24
OFF_RTT_MIN = 32
OFF_RTT_MAX = 40
OFF_STREAMS_OPENED = 48
OFF_STREAMS_CLOSED = 56
OFF_ACKS_BUILT = 64
OFF_PACKETS_ACKED = 72
OFF_MAX_CWND = 80
OFF_SPIN_FLIPS = 88
OFF_FC_RAISES = 96
OFF_PATHS_CREATED = 104
OFF_LOSS_ALARMS = 112
OFF_HANDSHAKE_US = 120
OFF_HS_PACKETS = 128  # handshake-time PI snapshot (first set, §4.1)
OFF_FINAL_BASE = 136  # final report: live fields read via get()
# Optional containment PIs (build_monitoring_plugin(containment=True)).
OFF_PLUGIN_FAULTS = 200
OFF_PLUGIN_QUARANTINES = 208

PI_FIELDS = [
    ("packets_sent", OFF_PACKETS_SENT),
    ("packets_received", OFF_PACKETS_RECEIVED),
    ("packets_lost", OFF_PACKETS_LOST),
    ("rtt_latest_us", OFF_RTT_LATEST),
    ("rtt_min_us", OFF_RTT_MIN),
    ("rtt_max_us", OFF_RTT_MAX),
    ("streams_opened", OFF_STREAMS_OPENED),
    ("streams_closed", OFF_STREAMS_CLOSED),
    ("acks_built", OFF_ACKS_BUILT),
    ("packets_acked", OFF_PACKETS_ACKED),
    ("max_cwnd", OFF_MAX_CWND),
    ("spin_flips", OFF_SPIN_FLIPS),
    ("flow_control_raises", OFF_FC_RAISES),
    ("paths_created", OFF_PATHS_CREATED),
    ("loss_alarms", OFF_LOSS_ALARMS),
    ("handshake_us", OFF_HANDSHAKE_US),
    ("handshake_packets", OFF_HS_PACKETS),
    ("final_packets_sent", OFF_FINAL_BASE),
    ("final_packets_received", OFF_FINAL_BASE + 8),
    ("final_bytes_sent", OFF_FINAL_BASE + 16),
    ("final_bytes_received", OFF_FINAL_BASE + 24),
    ("final_packets_lost", OFF_FINAL_BASE + 32),
    ("final_acks_received", OFF_FINAL_BASE + 40),
    ("final_srtt_us", OFF_FINAL_BASE + 48),
    ("final_spurious", OFF_FINAL_BASE + 56),
    # Zero unless the plugin was built with containment=True.
    ("plugin_faults", OFF_PLUGIN_FAULTS),
    ("plugin_quarantines", OFF_PLUGIN_QUARANTINES),
]


def _counter_pluglet(name: str, protoop: str, offset: int) -> Pluglet:
    """A passive pluglet bumping one PI counter."""
    source = f"""
def {name}():
    pi = get_opaque_data({PI_AREA_ID}, {PI_SIZE})
    mem64[pi + {offset}] = mem64[pi + {offset}] + 1
"""
    return Pluglet.from_source(name, protoop, "post", source)


def _rtt_pluglet() -> Pluglet:
    # post args: (path_index, latest_rtt) + (result,). latest arrives in
    # r2 marshaled to microseconds.
    source = f"""
def rtt_observer(path_id, latest):
    pi = get_opaque_data({PI_AREA_ID}, {PI_SIZE})
    mem64[pi + {OFF_RTT_LATEST}] = latest
    lo = mem64[pi + {OFF_RTT_MIN}]
    if lo == 0 or latest < lo:
        mem64[pi + {OFF_RTT_MIN}] = latest
    if latest > mem64[pi + {OFF_RTT_MAX}]:
        mem64[pi + {OFF_RTT_MAX}] = latest
"""
    return Pluglet.from_source("rtt_observer", "rtt_updated", "post", source)


def _cwnd_pluglet() -> Pluglet:
    source = f"""
def cwnd_observer(path_id, cwnd):
    pi = get_opaque_data({PI_AREA_ID}, {PI_SIZE})
    if cwnd > mem64[pi + {OFF_MAX_CWND}]:
        mem64[pi + {OFF_MAX_CWND}] = cwnd
"""
    return Pluglet.from_source("cwnd_observer", "cc_window_updated", "post", source)


def _handshake_pluglet() -> Pluglet:
    """First PI set: recorded when the handshake completes (§4.1)."""
    source = f"""
def handshake_report():
    pi = get_opaque_data({PI_AREA_ID}, {PI_SIZE})
    mem64[pi + {OFF_HANDSHAKE_US}] = get_time_us()
    mem64[pi + {OFF_HS_PACKETS}] = get({FLD_PACKETS_RECEIVED}, 0)
    push_message(pi, {PI_SIZE})
"""
    return Pluglet.from_source(
        "handshake_report", "connection_established", "post", source
    )


def _final_report_pluglet() -> Pluglet:
    """Second PI set: read live fields through get() and export."""
    base = OFF_FINAL_BASE
    source = f"""
def final_report():
    pi = get_opaque_data({PI_AREA_ID}, {PI_SIZE})
    mem64[pi + {base}] = get({FLD_PACKETS_SENT}, 0)
    mem64[pi + {base + 8}] = get({FLD_PACKETS_RECEIVED}, 0)
    mem64[pi + {base + 16}] = get({FLD_BYTES_SENT}, 0)
    mem64[pi + {base + 24}] = get({FLD_BYTES_RECEIVED}, 0)
    mem64[pi + {base + 32}] = get({FLD_PACKETS_LOST}, 0)
    mem64[pi + {base + 40}] = get({FLD_ACKS_RECEIVED}, 0)
    mem64[pi + {base + 48}] = get({FLD_SRTT_US}, 0)
    mem64[pi + {base + 56}] = get({FLD_SPURIOUS_RECEIVED}, 0)
    push_message(pi, {PI_SIZE})
"""
    return Pluglet.from_source(
        "final_report", "connection_closing", "post", source
    )


@plugin_builder
def build_monitoring_plugin(containment: bool = False) -> Plugin:
    """Assemble the 14-pluglet monitoring plugin (Table 2).

    ``containment=True`` adds two extra passive pluglets counting
    ``plugin_fault`` and ``plugin_quarantined`` recovery events, so a
    deployment can monitor how often containment fires.  They are opt-in
    to keep the paper's 14-pluglet figure intact by default."""
    pluglets = [
        _counter_pluglet("count_sent", "packet_sent_event", OFF_PACKETS_SENT),
        _counter_pluglet("count_received", "packet_received_event",
                         OFF_PACKETS_RECEIVED),
        _counter_pluglet("count_lost", "packet_lost_event", OFF_PACKETS_LOST),
        _counter_pluglet("count_acked", "packet_acked_event", OFF_PACKETS_ACKED),
        _counter_pluglet("count_stream_open", "stream_opened",
                         OFF_STREAMS_OPENED),
        _counter_pluglet("count_stream_close", "stream_closed",
                         OFF_STREAMS_CLOSED),
        _counter_pluglet("count_acks_built", "ack_frame_built", OFF_ACKS_BUILT),
        _counter_pluglet("count_spin_flip", "spin_bit_flipped", OFF_SPIN_FLIPS),
        _counter_pluglet("count_path", "path_created", OFF_PATHS_CREATED),
        _counter_pluglet("count_loss_alarm", "loss_alarm_fired",
                         OFF_LOSS_ALARMS),
        _rtt_pluglet(),
        _cwnd_pluglet(),
        _handshake_pluglet(),
        _final_report_pluglet(),
    ]
    assert len(pluglets) == 14  # Table 2: the monitoring plugin has 14
    if containment:
        pluglets.append(_counter_pluglet(
            "count_plugin_fault", "plugin_fault", OFF_PLUGIN_FAULTS))
        pluglets.append(_counter_pluglet(
            "count_plugin_quarantine", "plugin_quarantined",
            OFF_PLUGIN_QUARANTINES))
    return Plugin(PLUGIN_NAME, pluglets)


@dataclass
class PerformanceReport:
    """A decoded PI block as exported by the plugin."""

    values: dict

    @classmethod
    def parse(cls, data: bytes) -> "PerformanceReport":
        values = {}
        for name, offset in PI_FIELDS:
            values[name] = struct.unpack_from("<Q", data, offset)[0]
        return cls(values)

    def __getitem__(self, key: str) -> int:
        return self.values[key]


class MonitoringCollector:
    """The local daemon/collector: receives PI exports from connections.

    Attach with :meth:`attach`; reports accumulate in :attr:`reports`.
    ``forward`` optionally relays each raw report (e.g. over a simulated
    UDP socket to a remote collector, as in the paper)."""

    def __init__(self, forward: Optional[Callable[[bytes], None]] = None):
        self.reports: list = []
        self.forward = forward

    def attach(self, conn) -> None:
        conn.message_handlers[PLUGIN_NAME] = self._receive

    def _receive(self, data: bytes) -> None:
        self.reports.append(PerformanceReport.parse(data))
        if self.forward is not None:
            self.forward(data)
