"""The one transfer driver, and the conformance run built on it.

:func:`run_transfer` is the only code that builds a simulator, its
topology, the fault injector, both endpoints and their plugins: figure
points, ablations, CLI transfers, examples and conformance runs all
describe their run as a :class:`Scenario` and call it.  Callers watch a
run through one hook, called for each connection before its plugins
attach, and read what they need from the :class:`Transfer` it returns.

:func:`run_scenario` is the conformance run: one scenario under one
execution mode, with a profiler and metrics on both vantage points, a
tracer on the client, and a send-side ledger sampled before the
connection releases its recovery state — everything the oracles need.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from .plugins import build_plugin
from .scenario import Mode, RATE_FAULTS, Scenario

#: The tunnel workload's inner MTU and outer UDP payload (paper: "a
#: 1400-byte MTU inside the tunnel and 1500 outside").
TUNNEL_MTU = 1400
TUNNEL_OUTER_PAYLOAD = 1472

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
    faults are scheduled onto it by :func:`run_transfer`."""
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


@dataclass
class Transfer:
    """One driven run, as the driver left it: nothing is torn down."""

    sim: object
    injector: object
    #: The client's connection, and the server's (None until it exists).
    client: object
    server: object = None
    established: bool = False
    #: The workload finished within :attr:`Scenario.timeout`.
    completed: bool = False
    #: Seconds from the workload's start to its end (the download
    #: completion time), None unless completed.
    dct: Optional[float] = None
    #: ``get`` / ``upload``: the bytes the receiving application got.
    received: bytes = b""
    #: Attached plugin instances, both ends, in attach order.
    instances: list = field(default_factory=list)
    #: Plugins the host refused (registry name, or the plugin's own name
    #: for a builder), each once.
    plugins_rejected: list = field(default_factory=list)


def build_topology(sim, scenario: Scenario):
    """The scenario's network on ``sim``."""
    from repro.netsim.topology import Figure7Topology, PathParams, nat_topology

    spec = scenario.topology
    if spec.kind == "nat":
        return nat_topology(sim, d_ms=spec.d_ms, bw_mbps=spec.bw_mbps,
                            loss_pct=spec.loss_pct, seed=scenario.seed,
                            buffer_bytes=spec.buffer())
    path1 = PathParams.from_paper_units(spec.d_ms, spec.bw_mbps, spec.loss_pct)
    path2 = path1 if spec.d2_ms is None else PathParams.from_paper_units(
        spec.d2_ms, spec.bw_mbps, spec.loss_pct)
    return Figure7Topology(sim, path1, path2, seed=scenario.seed,
                           buffer_bytes=spec.buffer())


def run_transfer(scenario: Scenario,
                 plugins: Optional[Sequence[Callable]] = None,
                 observe: Optional[Callable] = None) -> Transfer:
    """Run ``scenario``'s workload over its network and return the run.

    ``plugins`` are zero-argument builders attached on both ends, in
    order; by default the scenario's plugin names resolve through the
    registry.  A plugin the host refuses (``ProtoopError``) degrades the
    run instead of crashing it and is recorded.  ``observe(conn, side)``
    is called for each connection (``side`` is ``"client"`` or
    ``"server"``) before its plugins attach."""
    from repro.apps.transfer import BulkClient, BulkServer
    from repro.apps.vpn import VpnTunnel
    from repro.core import PluginInstance
    from repro.core.protoop import ProtoopError
    from repro.netsim import Simulator
    from repro.netsim.tcp import TcpBulkTransfer
    from repro.quic import (
        ClientEndpoint,
        QuicConfiguration,
        ServerEndpoint,
        TransportParameters,
    )

    spec, app = scenario.topology, scenario.workload.app
    sim = Simulator()
    topo = build_topology(sim, scenario)
    injector = _build_injector(sim, scenario)
    if scenario.faults:
        for link in [topo.wan] if spec.kind == "nat" else topo.path_links:
            injector.inject_link(link)
    for fault in scenario.faults:
        if fault.kind == "flap":
            injector.schedule_flap(down_at=fault.at, duration=fault.duration)
        elif fault.kind == "nat_rebind":
            injector.schedule_nat_rebind(topo.nat, at=fault.at)

    if plugins is None:
        builders = [(name, partial(build_plugin, name))
                    for name in scenario.plugins]
    else:
        builders = [(None, build) for build in plugins]
    payload = scenario.expected_payload() if app in ("get", "upload") else b""
    received = bytearray()
    done = [False]
    tunnels: dict = {}

    def configuration(is_client: bool) -> QuicConfiguration:
        config = QuicConfiguration(is_client=is_client)
        if is_client:
            config.seed = scenario.seed
        if scenario.initial_window:
            config.initial_window = scenario.initial_window
        if app == "tunnel":
            config.max_udp_payload_size = TUNNEL_OUTER_PAYLOAD
            config.transport_parameters = TransportParameters(
                max_udp_payload_size=TUNNEL_OUTER_PAYLOAD)
        return config

    def attach(conn, side: str) -> None:
        if observe is not None:
            observe(conn, side)
        for name, build in builders:
            plugin = build()
            try:
                instance = PluginInstance(plugin, conn)
                instance.attach()
            except ProtoopError:
                label = name or plugin.name
                if label not in run.plugins_rejected:
                    run.plugins_rejected.append(label)
            else:
                run.instances.append(instance)

    def receive(stream_id, data, fin):
        received.extend(data)
        if fin:
            done[0] = True

    def on_connection(conn):
        if run.server is None:
            run.server = conn
        attach(conn, "server")
        pump = server._by_cid[conn.local_cid].pump
        if app == "get":
            answered = set()

            def on_stream_data(stream_id, data, fin):
                # The client half-closes after its request, but a
                # retransmitted FIN re-fires this hook with no new data:
                # answer each stream exactly once.
                if fin and stream_id not in answered:
                    answered.add(stream_id)
                    conn.send_stream_data(stream_id, payload, fin=True)
                    pump()

            conn.on_stream_data = on_stream_data
        elif app == "bulk":
            BulkServer().attach(conn, pump)
        elif app == "upload":
            conn.on_stream_data = receive
        else:
            tunnels["server"] = VpnTunnel(conn, pump, mtu=TUNNEL_MTU)

    server = ServerEndpoint(sim, topo.server, "server.0", 443,
                            configuration_factory=partial(configuration, False),
                            on_connection=on_connection)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443,
                            configuration=configuration(True))
    run = Transfer(sim=sim, injector=injector, client=client.conn)
    if spec.kind == "symmetric" and not spec.single_homed:
        client.conn.extra_local_addresses = ["client.1"]
    attach(client.conn, "client")
    if app == "get":
        client.conn.on_stream_data = receive
    elif app == "bulk":
        bulk = BulkClient(client.conn, client.pump)
    elif app == "tunnel":
        tunnels["client"] = VpnTunnel(client.conn, client.pump, mtu=TUNNEL_MTU)

    client.connect()
    run.established = sim.run_until(
        lambda: client.conn.is_established and run.server is not None,
        timeout=30)
    if not run.established:
        return run
    start = sim.now
    workload = None  # an app object with .completed and .dct
    if app == "bulk":
        bulk.request(scenario.workload.size, now=start)
        workload = bulk
    elif app == "tunnel":
        # Inner TCP: MSS constrained by the tunnel MTU (paper: 1400).
        workload = TcpBulkTransfer(sim, scenario.workload.size,
                                   mss=TUNNEL_MTU - 40 - 1)
        workload.wire(sender_send=lambda seg: tunnels["client"].send(1, seg),
                      receiver_send=lambda seg: tunnels["server"].send(1, seg))
        tunnels["server"].bind(1, workload.receiver.on_segment)
        tunnels["client"].bind(1, workload.sender.on_segment)
        workload.start()
    else:
        stream_id = client.conn.create_stream()
        client.conn.send_stream_data(
            stream_id, b"GET" if app == "get" else payload, fin=True)
        client.pump()

    def finished() -> bool:
        return done[0] if workload is None else workload.completed

    run.completed = sim.run_until(finished, timeout=scenario.timeout)
    if run.completed:
        run.dct = sim.now - start if workload is None else workload.dct
    run.received = bytes(received)
    return run


def run_scenario(scenario: Scenario, mode: Mode) -> RunReport:
    report = RunReport(mode=mode.name)
    with _EnvOverride(mode.env()):
        try:
            _run(scenario, report)
        except Exception as exc:  # noqa: BLE001 - a crash IS a finding
            report.error = f"{type(exc).__name__}: {exc}"
    return report


def _run(scenario: Scenario, report: RunReport) -> None:
    from repro.trace import (
        ConnectionMetrics,
        ConnectionTracer,
        MetricsRegistry,
        PreProfiler,
    )
    from repro.trace.schema import SchemaError, validate_event

    registry = MetricsRegistry()
    profiler = PreProfiler()
    tracers: list = []

    def observe(conn, side):
        profiler.attach(conn)
        ConnectionMetrics(conn, registry, prefix=f"{side}.")
        if side == "client":
            tracers.append(ConnectionTracer(conn, max_events=500_000))

    run = run_transfer(scenario, observe=observe)
    report.plugins_rejected = run.plugins_rejected
    if not run.established:
        report.error = "handshake did not complete"
        return

    # --- sample everything before any teardown releases state ------------
    report.completed = run.completed and len(run.received) == scenario.workload.size
    report.received = len(run.received)
    report.digest = hashlib.sha256(run.received).hexdigest()
    report.duration = run.dct
    report.stats["client"] = dict(run.client.stats)
    report.ledger["client"] = _ledger(run.client)
    if run.server is not None:
        report.stats["server"] = dict(run.server.stats)
        report.ledger["server"] = _ledger(run.server)

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
    registry.counter("sim.events_fired").inc(run.sim.events_fired)
    registry.counter("sim.events_coalesced").inc(run.sim.events_coalesced)
    report.metric_counters = {
        name: metric["value"]
        for name, metric in registry.snapshot().items()
        if metric["kind"] == "counter"
    }
    report.fault_stats = run.injector.stats.as_dict()

    tracer = tracers[0]
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
