"""Scenario runners shared by the examples and the benchmark suite.

Each runner builds the Figure-7 topology, wires endpoints, plugins and
applications, runs the simulation to completion and returns measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.apps.transfer import BulkClient, BulkServer
from repro.apps.vpn import VpnTunnel
from repro.core import PluginInstance
from repro.netsim import Simulator, symmetric_topology
from repro.netsim.tcp import TcpBulkTransfer
from repro.netsim.topology import Figure7Topology, PathParams
from repro.quic import (
    ClientEndpoint,
    QuicConfiguration,
    ServerEndpoint,
    TransportParameters,
)
from repro.trace import ConnectionMetrics, MetricsRegistry, PreProfiler

#: The paper's default parameter ranges (§4): d in ms, bw in Mbps, l in %.
DEFAULT_RANGES = {"d": (2.5, 25.0), "bw": (5.0, 50.0), "l": 0.0}
#: The In-Flight Communications ranges of §4.4 (Rula et al.).
INFLIGHT_RANGES = {"d": (100.0, 400.0), "bw": (0.3, 10.0), "l": (1.0, 8.0)}


@dataclass
class TransferResult:
    dct: Optional[float]
    completed: bool
    client_stats: dict
    plugin_instances: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Simulator-wide metrics registry (set when a run asked for one).
    metrics: Optional[MetricsRegistry] = None
    #: PRE profiler with per-pluglet attribution (set when profiling).
    profile: Optional[PreProfiler] = None


def _timeout_for(size: int, bw_mbps: float, d_ms: float, loss: float) -> float:
    ideal = size * 8 / (bw_mbps * 1e6)
    return max(60.0, 30 * ideal + 4 * d_ms / 1000 * 50 + loss * 10)


def _buffer_for(bw_mbps: float, d_ms: float) -> int:
    """Router buffer sized like the testbed's HTB queues: at least one
    bandwidth-delay product, floor of 96 kB."""
    bdp = bw_mbps * 1e6 / 8 * (2 * d_ms / 1000)
    return max(96_000, int(1.5 * bdp))


def run_quic_transfer(
    size: int,
    d_ms: float,
    bw_mbps: float,
    loss_pct: float = 0.0,
    seed: int = 1,
    client_plugins: Sequence[Callable] = (),
    server_plugins: Sequence[Callable] = (),
    multipath: bool = False,
    initial_window: Optional[int] = None,
    timeout: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
    profile=False,
) -> TransferResult:
    """One GET transfer over PQUIC, optionally with plugins attached.

    ``client_plugins`` / ``server_plugins`` are zero-argument plugin
    builders (so each run gets fresh instances).

    Observability is opt-in: pass a
    :class:`~repro.trace.MetricsRegistry` as ``metrics`` to collect
    both connections' counts (``client.*``, ``server.*``) and histograms
    into it, plus the simulator's totals (``sim.*``) when the run ends, and
    ``profile=True`` (or an existing :class:`~repro.trace.PreProfiler`,
    to accumulate across runs) for per-pluglet PRE attribution on both
    sides of the connection."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=d_ms, bw_mbps=bw_mbps,
                              loss_pct=loss_pct, seed=seed,
                              buffer_bytes=_buffer_for(bw_mbps, d_ms))
    instances: list = []
    if profile is False or profile is None:
        profiler = None
    elif profile is True:
        profiler = PreProfiler()
    else:
        profiler = profile

    def server_config() -> QuicConfiguration:
        cfg = QuicConfiguration(is_client=False)
        if initial_window:
            cfg.initial_window = initial_window
        return cfg

    bulk_server = BulkServer()
    server = ServerEndpoint(sim, topo.server, "server.0", 443,
                            configuration_factory=server_config)

    def on_connection(conn):
        if profiler is not None:
            profiler.attach(conn)
        if metrics is not None:
            ConnectionMetrics(conn, metrics, prefix="server.")
        for build in server_plugins:
            instance = PluginInstance(build(), conn)
            instance.attach()
            instances.append(instance)
        driver = server._by_cid[conn.local_cid]
        bulk_server.attach(conn, driver.pump)

    server.on_connection = on_connection

    client_cfg = QuicConfiguration(is_client=True, seed=seed)
    if initial_window:
        client_cfg.initial_window = initial_window
    client = ClientEndpoint(sim, topo.client, "client.0", 5000,
                            "server.0", 443, configuration=client_cfg)
    if multipath:
        client.conn.extra_local_addresses = ["client.1"]
    if profiler is not None:
        profiler.attach(client.conn)
    if metrics is not None:
        ConnectionMetrics(client.conn, metrics, prefix="client.")
    for build in client_plugins:
        instance = PluginInstance(build(), client.conn)
        instance.attach()
        instances.append(instance)

    bulk_client = BulkClient(client.conn, client.pump)
    client.connect()
    if sim.run_until(lambda: client.conn.is_established, timeout=30):
        bulk_client.request(size, now=sim.now)
        limit = timeout or _timeout_for(size, bw_mbps, d_ms, loss_pct)
        sim.run_until(lambda: bulk_client.completed, timeout=limit)
    if metrics is not None:
        metrics.counter("transfers.total").inc()
        if bulk_client.completed:
            metrics.counter("transfers.completed").inc()
            metrics.histogram("transfer.dct_ms").observe(
                bulk_client.dct * 1000.0)
        metrics.counter("sim.events_fired").inc(sim.events_fired)
        metrics.counter("sim.events_coalesced").inc(sim.events_coalesced)
    return TransferResult(
        dct=bulk_client.dct,
        completed=bulk_client.completed,
        client_stats=dict(client.conn.stats),
        plugin_instances=instances,
        metrics=metrics,
        profile=profiler,
    )


def run_tcp_direct(
    size: int,
    d_ms: float,
    bw_mbps: float,
    loss_pct: float = 0.0,
    seed: int = 1,
    mss: int = 1460,
    timeout: Optional[float] = None,
) -> TransferResult:
    """Baseline: TCP Cubic straight over the top Figure-7 path."""
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=d_ms, bw_mbps=bw_mbps,
                              loss_pct=loss_pct, seed=seed,
                              buffer_bytes=_buffer_for(bw_mbps, d_ms))
    flow = TcpBulkTransfer(sim, size, mss=mss)
    flow.wire(
        sender_send=lambda seg: topo.client.sendto(
            seg, "client.0", 6000, "server.0", 6001),
        receiver_send=lambda seg: topo.server.sendto(
            seg, "server.0", 6001, "client.0", 6000),
    )
    topo.client.bind(6000, lambda d: flow.sender.on_segment(d.payload))
    topo.server.bind(6001, lambda d: flow.receiver.on_segment(d.payload))
    flow.start()
    limit = timeout or _timeout_for(size, bw_mbps, d_ms, loss_pct)
    sim.run_until(lambda: flow.completed, timeout=limit)
    return TransferResult(
        dct=flow.dct, completed=flow.completed,
        client_stats={"retransmissions": flow.sender.retransmissions},
    )


def run_tcp_through_tunnel(
    size: int,
    d_ms: float,
    bw_mbps: float,
    loss_pct: float = 0.0,
    seed: int = 1,
    multipath: bool = False,
    tunnel_mtu: int = 1400,
    timeout: Optional[float] = None,
) -> TransferResult:
    """TCP Cubic through the PQUIC VPN (Figures 8 and 11)."""
    from repro.plugins.datagram import build_datagram_plugin
    from repro.plugins.multipath import build_multipath_plugin

    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=d_ms, bw_mbps=bw_mbps,
                              loss_pct=loss_pct, seed=seed,
                              buffer_bytes=_buffer_for(bw_mbps, d_ms))
    instances = []
    tunnels = {}

    # 1500-byte-class outer packets so the 1400-byte tunnel MTU fits
    # (paper: "a 1400-byte MTU inside the tunnel and 1500 outside").
    outer_payload = 1472

    def tunnel_server_config() -> QuicConfiguration:
        return QuicConfiguration(
            is_client=False, max_udp_payload_size=outer_payload,
            transport_parameters=TransportParameters(
                max_udp_payload_size=outer_payload),
        )

    server = ServerEndpoint(sim, topo.server, "server.0", 443,
                            configuration_factory=tunnel_server_config)

    def on_connection(conn):
        builders = [build_datagram_plugin]
        if multipath:
            builders.append(build_multipath_plugin)
        for build in builders:
            instance = PluginInstance(build(), conn)
            instance.attach()
            instances.append(instance)
        driver = server._by_cid[conn.local_cid]
        tunnels["server"] = VpnTunnel(conn, driver.pump, mtu=tunnel_mtu)

    server.on_connection = on_connection

    client = ClientEndpoint(
        sim, topo.client, "client.0", 5000, "server.0", 443,
        configuration=QuicConfiguration(
            is_client=True, max_udp_payload_size=outer_payload,
            transport_parameters=TransportParameters(
                max_udp_payload_size=outer_payload),
        ),
    )
    if multipath:
        client.conn.extra_local_addresses = ["client.1"]
    builders = [build_datagram_plugin]
    if multipath:
        builders.append(build_multipath_plugin)
    for build in builders:
        instance = PluginInstance(build(), client.conn)
        instance.attach()
        instances.append(instance)
    tunnels["client"] = VpnTunnel(client.conn, client.pump, mtu=tunnel_mtu)

    client.connect()
    if not sim.run_until(
        lambda: client.conn.is_established and "server" in tunnels, timeout=30
    ):
        return TransferResult(None, False, dict(client.conn.stats), instances)

    # Inner TCP flow: MSS constrained by the tunnel MTU (paper: 1400).
    flow = TcpBulkTransfer(sim, size, mss=tunnel_mtu - 40 - 1)
    flow.wire(
        sender_send=lambda seg: tunnels["client"].send(1, seg),
        receiver_send=lambda seg: tunnels["server"].send(1, seg),
    )
    tunnels["server"].bind(1, lambda pkt: flow.receiver.on_segment(pkt))
    tunnels["client"].bind(1, lambda pkt: flow.sender.on_segment(pkt))
    flow.start()
    limit = timeout or _timeout_for(size, bw_mbps, d_ms, loss_pct)
    sim.run_until(lambda: flow.completed, timeout=limit)
    return TransferResult(
        dct=flow.dct, completed=flow.completed,
        client_stats=dict(client.conn.stats),
        plugin_instances=instances,
        extra={
            "tunnel_dropped": tunnels["client"].dropped_queue,
            "retransmissions": flow.sender.retransmissions,
        },
    )


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty sequence")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
