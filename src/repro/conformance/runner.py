"""Run one scenario under one execution mode and measure everything the
oracles need.

The runner is deliberately self-contained (it does not reuse the
experiment harness): conformance needs patterned payloads it can digest,
fault schedules wired into the topology, tracers/profilers/metrics on
*both* vantage points, and a send-side ledger sample taken before the
connection releases its recovery state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .plugins import build_plugin
from .scenario import Mode, RATE_FAULTS, Scenario

#: Trace categories excluded from the cross-run trace digest: profiler
#: export rows carry wall-clock times, which legitimately differ run to
#: run even when the simulation is bit-identical.
_NONDETERMINISTIC_TRACE_CATEGORIES = frozenset({"pre"})


@dataclass
class RunReport:
    """Everything one run exposes to the oracle catalog."""

    mode: str
    completed: bool = False
    received: int = 0
    digest: str = ""
    duration: Optional[float] = None
    #: Per-side ledgers: {"client"|"server": {...stats...}}
    stats: dict = field(default_factory=dict)
    #: Per-side send ledger sampled before close:
    #: {"client"|"server": {"sent", "acked", "lost", "in_flight"}}
    ledger: dict = field(default_factory=dict)
    #: "plugin/pluglet/protoop" -> {invocations, fuel, helper_calls, faults}
    pluglet_rows: dict = field(default_factory=dict)
    #: Host-side protoop dispatch counts (both vantage points merged).
    protoop_runs: dict = field(default_factory=dict)
    #: Registry counter snapshot: name -> value.
    metric_counters: dict = field(default_factory=dict)
    #: Schema violations found post-hoc in the recorded trace stream.
    schema_errors: list = field(default_factory=list)
    trace_events: int = 0
    #: Digest of the deterministic part of the trace stream.
    trace_digest: str = ""
    fault_stats: dict = field(default_factory=dict)
    #: Plugin names refused at attach time (by the conflict analyzer).
    plugins_rejected: list = field(default_factory=list)
    #: Unexpected exception text (the run itself crashed).
    error: Optional[str] = None


class _EnvOverride:
    """Set the mode's environment for the duration of one run."""

    def __init__(self, env: dict):
        self.env = env
        self.saved: dict = {}

    def __enter__(self):
        for key, value in self.env.items():
            self.saved[key] = os.environ.get(key)
            os.environ[key] = value
        return self

    def __exit__(self, *exc):
        for key, value in self.saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        return False


def _ledger(conn) -> dict:
    """The send-side conservation sample: every packet ever sent is, at
    this instant, exactly one of acked / declared-lost / still-tracked."""
    in_flight = len(conn.initial_space.sent)
    in_flight += sum(len(path.space.sent) for path in conn.paths)
    return {
        "sent": conn.stats["packets_sent"],
        "acked": conn.stats["packets_acked"],
        "lost": conn.stats["packets_lost"],
        "in_flight": in_flight,
    }


def _build_injector(sim, scenario: Scenario):
    """Sum rate faults per kind and build the (single) injector; timed
    faults are scheduled onto it by :func:`run_scenario`."""
    from repro.netsim.faults import FaultInjector

    rates = {kind: 0.0 for kind in RATE_FAULTS}
    delay = 0.05
    for fault in scenario.faults:
        if fault.kind in RATE_FAULTS:
            rates[fault.kind] = min(1.0, rates[fault.kind] + fault.rate)
            if fault.kind == "reorder":
                delay = fault.delay
    return FaultInjector(
        sim, seed=scenario.seed,
        corrupt_rate=rates["corrupt"],
        duplicate_rate=rates["duplicate"],
        reorder_rate=rates["reorder"],
        reorder_delay=delay,
    )


def run_scenario(scenario: Scenario, mode: Mode) -> RunReport:
    report = RunReport(mode=mode.name)
    with _EnvOverride(mode.env()):
        try:
            _run(scenario, report)
        except Exception as exc:  # noqa: BLE001 - a crash IS a finding
            report.error = f"{type(exc).__name__}: {exc}"
    return report


def _attach_plugins(conn, scenario: Scenario, report: RunReport) -> None:
    """Attach the scenario's plugins in declared order; a plugin the host
    refuses (inter-plugin conflict, protoop already replaced) degrades the
    run rather than crashing it, and its name is recorded for the parity
    oracles — rejection must not depend on the execution mode."""
    from repro.core import PluginInstance
    from repro.core.protoop import ProtoopError

    for name in scenario.plugins:
        try:
            PluginInstance(build_plugin(name), conn).attach()
        except ProtoopError:
            if name not in report.plugins_rejected:
                report.plugins_rejected.append(name)


def _run(scenario: Scenario, report: RunReport) -> None:
    from repro.netsim import Simulator, symmetric_topology
    from repro.netsim.topology import nat_topology
    from repro.quic import ClientEndpoint, ServerEndpoint
    from repro.trace import (
        ConnectionMetrics,
        ConnectionTracer,
        MetricsRegistry,
        PreProfiler,
    )
    from repro.trace.schema import SchemaError, validate_event

    topo_spec = scenario.topology
    registry = MetricsRegistry()
    sim = Simulator()
    if topo_spec.kind == "nat":
        topo = nat_topology(sim, d_ms=topo_spec.d_ms, bw_mbps=topo_spec.bw_mbps,
                            loss_pct=topo_spec.loss_pct, seed=scenario.seed)
        client_host, server_host, nat = topo.client, topo.server, topo.nat
        fault_links = [topo.wan]
    else:
        topo = symmetric_topology(sim, d_ms=topo_spec.d_ms,
                                  bw_mbps=topo_spec.bw_mbps,
                                  loss_pct=topo_spec.loss_pct,
                                  seed=scenario.seed)
        client_host, server_host, nat = topo.client, topo.server, None
        fault_links = list(topo.path_links)

    injector = _build_injector(sim, scenario)
    for link in fault_links:
        injector.inject_link(link)
    for fault in scenario.faults:
        if fault.kind == "flap":
            injector.schedule_flap(down_at=fault.at, duration=fault.duration)
        elif fault.kind == "nat_rebind":
            injector.schedule_nat_rebind(nat, at=fault.at)

    payload = scenario.expected_payload()
    profiler = PreProfiler()
    received = bytearray()
    done = [False]
    server_conns: list = []

    def on_connection(conn):
        server_conns.append(conn)
        profiler.attach(conn)
        ConnectionMetrics(conn, registry, prefix="server.")
        _attach_plugins(conn, scenario, report)
        answered = set()

        def on_stream_data(stream_id, data, fin):
            # The client half-closes after its request, but a
            # retransmitted FIN re-fires this hook with no new data —
            # answer each stream exactly once.
            if fin and stream_id not in answered:
                answered.add(stream_id)
                conn.send_stream_data(stream_id, payload, fin=True)
                server._by_cid[conn.local_cid].pump()

        conn.on_stream_data = on_stream_data

    server = ServerEndpoint(sim, server_host, "server.0", 443,
                            on_connection=on_connection)
    client = ClientEndpoint(sim, client_host, "client.0", 5000,
                            "server.0", 443)
    if nat is None:  # dual-homed: a multipath plugin opens client.1
        client.conn.extra_local_addresses = ["client.1"]
    profiler.attach(client.conn)
    ConnectionMetrics(client.conn, registry, prefix="client.")
    tracer = ConnectionTracer(client.conn, max_events=500_000)
    _attach_plugins(client.conn, scenario, report)

    def on_stream_data(stream_id, data, fin):
        received.extend(data)
        if fin:
            done[0] = True

    client.conn.on_stream_data = on_stream_data

    client.connect()
    if not sim.run_until(lambda: client.conn.is_established, timeout=30):
        report.error = "handshake did not complete"
        return
    start = sim.now
    stream_id = client.conn.create_stream()
    client.conn.send_stream_data(stream_id, b"GET", fin=True)
    client.pump()
    sim.run_until(lambda: done[0], timeout=scenario.timeout)

    # --- sample everything before any teardown releases state ------------
    report.completed = done[0] and len(received) == len(payload)
    report.received = len(received)
    report.digest = hashlib.sha256(bytes(received)).hexdigest()
    report.duration = (sim.now - start) if done[0] else None
    report.stats["client"] = dict(client.conn.stats)
    report.ledger["client"] = _ledger(client.conn)
    if server_conns:
        report.stats["server"] = dict(server_conns[0].stats)
        report.ledger["server"] = _ledger(server_conns[0])

    report.pluglet_rows = {
        f"{rec.plugin}/{rec.pluglet}/{rec.protoop}": {
            "invocations": rec.invocations,
            "fuel": rec.fuel,
            "helper_calls": rec.helper_calls,
            "faults": rec.faults,
        }
        for rec in profiler.records.values()
    }
    report.protoop_runs = profiler.protoop_runs()
    registry.counter("sim.events_fired").inc(sim.events_fired)
    registry.counter("sim.events_coalesced").inc(sim.events_coalesced)
    report.metric_counters = {
        name: metric["value"]
        for name, metric in registry.snapshot().items()
        if metric["kind"] == "counter"
    }
    report.fault_stats = injector.stats.as_dict()

    tracer.finish()
    report.trace_events = len(tracer.events)
    deterministic = []
    for event in tracer.events:
        record = event.as_record()
        try:
            validate_event(record)
        except SchemaError as exc:
            report.schema_errors.append(str(exc))
        if (event.category not in _NONDETERMINISTIC_TRACE_CATEGORIES
                and event.name not in ("analysis", "conflict_report")):
            # plugin:analysis and plugin:conflict_report carry the
            # analyzer's diagnostic counts, not protocol behaviour: a new
            # lint rule must not move every digest in the golden records.
            deterministic.append(record)
    report.trace_digest = hashlib.sha256(
        json.dumps(deterministic, sort_keys=True).encode()).hexdigest()
