"""Ablations on PQUIC's design choices, beyond the paper's figures.

1. FEC code rate: how the number of repair symbols per 25-source window
   trades bandwidth against recovery (the §4.4 "code rate 5/6" choice).
2. Packet schedulers on asymmetric paths: the paper implements a
   lowest-RTT scheduler "to mimic Multipath TCP" but does not evaluate it
   (§4.3) — we do.
3. Plugin cache: connection-setup cost with cold vs cached plugin
   injection (§2.5's motivation).
"""

import statistics
import time

import pytest

from repro.core import PluginCache, PluginInstance
from repro.experiments import median, run_quic_transfer
from repro.netsim import Simulator
from repro.netsim.topology import Figure7Topology, PathParams
from repro.plugins.fec import build_fec_plugin
from repro.plugins.monitoring import build_monitoring_plugin
from repro.plugins.multipath import build_multipath_plugin
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint

from _util import FULL, print_table, write_rows


def test_ablation_fec_code_rate(benchmark):
    """More repair symbols recover more losses but consume bandwidth."""
    def sweep():
        rows = []
        for repair in (1, 3, 5, 8):
            dcts = []
            recovered = 0
            for seed in (21, 22, 23):
                result = run_quic_transfer(
                    150_000, d_ms=200, bw_mbps=2, loss_pct=5, seed=seed,
                    client_plugins=[lambda r=repair: build_fec_plugin(
                        "rlc", "full", window=25, repair=r)],
                    server_plugins=[lambda r=repair: build_fec_plugin(
                        "rlc", "full", window=25, repair=r)],
                )
                if result.completed:
                    dcts.append(result.dct)
                    recovered += sum(
                        i.runtime.fec_state.recovered_total
                        for i in result.plugin_instances
                        if hasattr(i.runtime, "fec_state"))
            rows.append((repair, median(dcts), recovered))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = f"{'repair/25':>10} {'median DCT':>11} {'recovered':>10}"
    printable = [f"{r:>10} {d:>10.2f}s {rec:>10}" for r, d, rec in rows]
    print_table("Ablation — FEC code rate", header, printable)
    write_rows("ablation_fec_code_rate", header, printable)
    # More redundancy recovers at least as many packets.
    assert rows[-1][2] >= rows[0][2]


def _multipath_transfer(scheduler, d2_ms, size=400_000, seed=31):
    sim = Simulator()
    topo = Figure7Topology(
        sim,
        PathParams.from_paper_units(5, 10),
        PathParams.from_paper_units(d2_ms, 10),
        seed=seed,
    )
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    client.conn.extra_local_addresses = ["client.1"]
    PluginInstance(build_multipath_plugin(scheduler), client.conn).attach()
    state = {}

    def on_conn(conn):
        PluginInstance(build_multipath_plugin(scheduler), conn).attach()
        state["sconn"] = conn

    server.on_connection = on_conn
    client.connect()
    assert sim.run_until(
        lambda: client.conn.is_established and "sconn" in state, timeout=5)
    done = [False]
    state["sconn"].on_stream_data = lambda sid, d, fin: done.__setitem__(0, fin)
    t0 = sim.now
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"a" * size, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=120)
    return sim.now - t0


def test_ablation_schedulers_on_asymmetric_paths(benchmark):
    """Round-robin suffers when one path is much slower; lowest-RTT (the
    Multipath-TCP-style scheduler) adapts."""
    def sweep():
        rows = []
        for d2 in (5, 25, 100):
            rr = _multipath_transfer("rr", d2)
            lowrtt = _multipath_transfer("lowrtt", d2)
            rows.append((d2, rr, lowrtt))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    header = (f"{'path2 delay':>12} {'round-robin':>12} {'lowest-RTT':>11}"
              "  (path1 fixed at 5 ms)")
    printable = [f"{d2:>10}ms {rr:>11.3f}s {lr:>10.3f}s"
                 for d2, rr, lr in rows]
    print_table("Ablation — multipath packet schedulers", header, printable)
    write_rows("ablation_schedulers", header, printable)
    # On very asymmetric paths lowest-RTT should not be slower than RR.
    d2, rr, lowrtt = rows[-1]
    assert lowrtt <= rr * 1.1


def test_ablation_plugin_cache_setup_cost(benchmark):
    """§2.5: a cached plugin is loaded once; later connections only
    instantiate it."""
    plugins = [build_monitoring_plugin(), build_multipath_plugin(),
               build_fec_plugin("rlc", "eos")]
    wires = [p.serialize() for p in plugins]
    cache = PluginCache()
    for p in plugins:
        cache.store(p)

    def cold_setup():
        """What a host without the cache does: decode, verify, compile,
        build."""
        from repro.core.plugin import Plugin
        from repro.quic.connection import QuicConnection

        conn = QuicConnection(QuicConfiguration(is_client=True))
        for wire in wires:
            PluginInstance(Plugin.deserialize(wire), conn).attach()
        return conn

    def cached_setup():
        from repro.quic.connection import QuicConnection

        conn = QuicConnection(QuicConfiguration(is_client=True))
        for p in plugins:
            cache.instantiate(p.name, conn).attach()
        return conn

    cached_setup()  # the first connection loads the code
    t0 = time.perf_counter()
    for _ in range(5):
        cold_setup()
    cold = (time.perf_counter() - t0) / 5
    t0 = time.perf_counter()
    for _ in range(5):
        cached_setup()
    cached = (time.perf_counter() - t0) / 5
    rows = [
        f"cold (load + instantiate):  {cold * 1000:8.2f} ms",
        f"cached (instantiate only):  {cached * 1000:8.2f} ms",
        f"speedup:                    {cold / cached:8.1f}x",
    ]
    print_table("Ablation — plugin cache setup cost", "", rows)
    write_rows("ablation_plugin_cache", "setup cost", rows)
    benchmark.pedantic(cached_setup, rounds=3, iterations=1)
    assert cached < cold
