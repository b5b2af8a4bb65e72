"""The qlog-style connection tracer, rebuilt on the versioned schema.

Everything is still observed through ``pre``/``post`` anchors on the same
protocol operations plugins use — the tracer remains a host-side
demonstration of the gray-box interface — but event decoding is now
declarative: :data:`HOOKS` maps each protoop event to its schema event
and a decoder, so adding an event means one catalog entry plus one table
row, not a new method.

Beyond recording events:

* events past ``max_events`` are *counted*, and :meth:`finish` appends a
  final ``trace:truncated`` event carrying the drop count;
* optional streaming to a :class:`~repro.trace.writer.JsonlTraceWriter`
  as events are recorded;
* optional strict schema validation of every recorded event;
* a profiled run exports per-pluglet ``pluglet_profile`` events into the
  trace at :meth:`finish`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.core.protoop import Anchor

from .schema import TRACE_SCHEMA_VERSION, validate_event
from .writer import JsonlTraceWriter


@dataclass
class TraceEvent:
    time: float
    category: str
    name: str
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "time": round(self.time * 1000, 3),  # ms, qlog convention
            "category": self.category,
            "name": self.name,
            "data": self.data,
        }

    def as_record(self) -> dict:
        record = self.as_dict()
        record["type"] = "event"
        return record


# --- declarative hook table --------------------------------------------------
#
# protoop event name -> (category, schema event name, decoder).
# A decoder turns the protoop's (args, result) into the event's data dict
# and must produce exactly the fields the schema declares.

def _d_packet_sent(args, result):
    (sent,) = args
    return {"packet_number": sent.packet_number, "size": sent.size,
            "path": sent.path_id, "ack_eliciting": sent.ack_eliciting}


def _d_packet_received(args, result):
    epoch, path, pn, payload = args
    return {"packet_number": pn, "path": path, "size": len(payload)}


def _d_packet_lost(args, result):
    (pkt,) = args
    return {"packet_number": pkt.packet_number, "path": pkt.path_id}


def _d_rtt(args, result):
    path, latest = args
    return {"path": path, "latest_rtt_ms": round(latest * 1000, 3)}


def _d_cwnd(args, result):
    path, cwnd = args
    return {"path": path, "cwnd": int(cwnd)}


def _d_empty(args, result):
    return {}


def _d_stream_opened(args, result):
    return {"stream_id": args[0]}


def _d_state(args, result):
    return {"state": args[0]}


def _d_plugin(args, result):
    return {"plugin": args[0]}


def _d_spin(args, result):
    return {"value": bool(args[0])}


def _d_plugin_fault(args, result):
    plugin, pluglet, failure_class, reason = args
    return {"plugin": plugin, "pluglet": pluglet,
            "failure_class": failure_class, "reason": reason}


def _d_quarantined(args, result):
    plugin, crashes, until = args
    return {"plugin": plugin, "crashes": crashes,
            "quarantined_until_ms": round(until * 1000, 3)}


def _d_exchange_retry(args, result):
    plugin, attempt = args
    return {"plugin": plugin, "attempt": attempt}


def _d_exchange_degraded(args, result):
    plugin, reason = args
    return {"plugin": plugin, "reason": reason}


def _d_exchange_completed(args, result):
    plugin, length = args
    return {"plugin": plugin, "compressed_length": length}


def _d_analysis(args, result):
    plugin, pluglets, errors, warnings, proven = args
    return {"plugin": plugin, "pluglets": pluglets, "errors": errors,
            "warnings": warnings, "proven": proven}


def _d_conflict(args, result):
    plugin, conflicts, rules = args
    return {"plugin": plugin, "conflicts": conflicts, "rules": rules}


def _d_path_transition(args, result):
    path, old, new = args
    return {"path": path, "old": old, "new": new}


def _d_probed(args, result):
    pkt, path = args
    return {"packet_number": pkt.packet_number, "path": path}


def _d_spurious(args, result):
    pkt, path = args
    return {"packet_number": pkt.packet_number, "path": path}


def _d_cc_state(args, result):
    path, old, new, trigger = args
    return {"path": path, "old": old, "new": new, "trigger": trigger}


HOOKS = {
    "packet_sent_event": ("transport", "packet_sent", _d_packet_sent),
    "packet_received_event": ("transport", "packet_received",
                              _d_packet_received),
    "packet_lost_event": ("recovery", "packet_lost", _d_packet_lost),
    "rtt_updated": ("recovery", "metrics_updated", _d_rtt),
    "cc_window_updated": ("recovery", "congestion_window_updated", _d_cwnd),
    "connection_established": ("connectivity", "connection_established",
                               _d_empty),
    "connection_closed": ("connectivity", "connection_closed", _d_empty),
    "connection_state_changed": ("connectivity", "connection_state_updated",
                                 _d_state),
    "stream_opened": ("transport", "stream_opened", _d_stream_opened),
    "loss_alarm_fired": ("recovery", "loss_alarm_fired", _d_empty),
    "plugin_injected": ("plugin", "plugin_injected", _d_plugin),
    "spin_bit_flipped": ("transport", "spin_bit_updated", _d_spin),
    "plugin_fault": ("plugin", "plugin_fault", _d_plugin_fault),
    "plugin_quarantined": ("plugin", "plugin_quarantined", _d_quarantined),
    "plugin_blocklisted": ("plugin", "plugin_blocklisted", _d_plugin),
    "plugin_exchange_retry": ("plugin", "plugin_exchange_retry",
                              _d_exchange_retry),
    "plugin_exchange_degraded": ("plugin", "plugin_exchange_degraded",
                                 _d_exchange_degraded),
    "plugin_exchange_completed": ("plugin", "plugin_exchange_completed",
                                  _d_exchange_completed),
    "plugin_analyzed": ("plugin", "analysis", _d_analysis),
    "plugin_conflict_report": ("plugin", "conflict_report", _d_conflict),
    "path_validation_state_changed": ("connectivity",
                                      "path_validation_state_changed",
                                      _d_path_transition),
    "connection_migrated": ("connectivity", "connection_migrated",
                            _d_path_transition),
    "stateless_reset": ("connectivity", "stateless_reset", _d_empty),
    "probe_sent": ("recovery", "packet_probed", _d_probed),
    "on_spurious_loss": ("recovery", "spurious_loss", _d_spurious),
    "congestion_state_changed": ("recovery", "congestion_state_updated",
                                 _d_cc_state),
}


class ConnectionTracer:
    """Attach to a connection to record transport and plugin events."""

    def __init__(self, conn, max_events: int = 100_000,
                 writer: Optional[JsonlTraceWriter] = None,
                 validate: bool = False):
        self.conn = conn
        self.max_events = max_events
        self.events: list = []
        self.dropped = 0
        self.writer = writer
        self.validate = validate
        self.finished = False
        self._attached: list = []
        if writer is not None:
            writer.write_header(vantage_point=self.vantage_point)
        self._attach()

    @property
    def vantage_point(self) -> str:
        return "client" if getattr(self.conn, "is_client", False) else "server"

    # --- recording --------------------------------------------------------

    def _record(self, category: str, name: str, data: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        event = TraceEvent(self.conn.now, category, name, data)
        self._append(event)

    def _append(self, event: TraceEvent) -> None:
        if self.validate:
            validate_event(event.as_record())
        self.events.append(event)
        if self.writer is not None:
            self.writer.write_event(event.as_record())

    def record_event(self, category: str, name: str, **data) -> None:
        """Host-side entry point (profiler export, app-level markers)."""
        self._record(category, name, data)

    # --- attachment -------------------------------------------------------

    def _attach(self) -> None:
        table = self.conn.protoops
        for opname, (category, name, decode) in HOOKS.items():
            fn = self._make_hook(category, name, decode)
            table.attach(opname, Anchor.POST, fn)
            self._attached.append((opname, fn))

    def _make_hook(self, category: str, name: str, decode):
        def hook(conn, args, result):
            self._record(category, name, decode(args, result))
        return hook

    def detach(self) -> None:
        table = self.conn.protoops
        for opname, fn in self._attached:
            table.detach(opname, Anchor.POST, fn)
        self._attached.clear()

    # --- finalization -----------------------------------------------------

    def finish(self) -> None:
        """Stop recording and flush the trailer.

        Exports the attached profiler (if any) as ``pluglet_profile``
        events, appends the ``trace:truncated`` marker when events were
        dropped (bypassing ``max_events`` — the marker must always make
        it out), and closes the streaming writer.
        """
        if self.finished:
            return
        self.finished = True
        self.detach()
        profiler = getattr(self.conn, "profiler", None)
        if profiler is not None:
            for row in profiler.summary():
                self._record("pre", "pluglet_profile", row)
        if self.dropped:
            self._append(TraceEvent(
                self.conn.now, "trace", "truncated",
                {"dropped": self.dropped, "recorded": len(self.events)}))
        if self.writer is not None:
            self.writer.close(dropped=self.dropped)

    # --- output -----------------------------------------------------------

    def summary(self) -> dict:
        counts: dict = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    def to_json(self) -> str:
        """A qlog-shaped document for external viewers."""
        return json.dumps({
            "qlog_version": "0.4-repro",
            "schema": TRACE_SCHEMA_VERSION,
            "title": "pquic-repro trace",
            "traces": [{
                "vantage_point": {"type": self.vantage_point},
                "events": [e.as_dict() for e in self.events],
            }],
        }, indent=2)
