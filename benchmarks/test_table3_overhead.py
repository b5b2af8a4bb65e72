"""Table 3: benchmarking plugins (goodput and plugin load time).

The paper's 10 Gbps testbed measures CPU-bound goodput for a 1 GB
download under each plugin configuration, plus plugin loading times (cold
vs cached).  Our substrate is a simulator, so the CPU-bound analogue is
the *wall-clock* cost of pushing a fixed transfer through the stack:
goodput = bytes / host-CPU-seconds.  What must reproduce is the ordering
and rough factors of Table 3:

    no plugin > monitoring > multipath(1 path) > monitoring+multipath
              > FEC XOR EOS ~ FEC RLC EOS > FEC XOR full > FEC RLC full

and cached plugin loading orders of magnitude below cold loading.  One
link of that chain does not reproduce here: one-path multipath is no
dearer than monitoring, so that pair is held to a band (EXPERIMENTS.md).

The configurations run round-robin, one run of each per round, so a slow
phase of a shared host lands on all of them alike instead of on the one
configuration that happened to be running.
"""

import statistics
import time

import pytest

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.core import Plugin, PluginCache, PluginInstance
from repro.plugins.fec import build_fec_plugin
from repro.plugins.monitoring import build_monitoring_plugin
from repro.plugins.multipath import build_multipath_plugin
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm import programs

from _util import FULL, print_table, write_rows

SIZE = 3_000_000 if FULL else 1_000_000
RUNS = 5 if FULL else 3

CONFIGS = [
    ("PQUIC, no plugin", []),
    ("Monitoring (a)", [build_monitoring_plugin]),
    ("Multipath 1-path (b)", [build_multipath_plugin]),
    ("a and b", [build_monitoring_plugin, build_multipath_plugin]),
    ("FEC XOR EOS", [lambda: build_fec_plugin("xor", "eos")]),
    ("FEC RLC EOS", [lambda: build_fec_plugin("rlc", "eos")]),
    ("FEC XOR", [lambda: build_fec_plugin("xor", "full")]),
    ("FEC RLC", [lambda: build_fec_plugin("rlc", "full")]),
]


def goodputs(configs):
    """``[(label, median, relative spread)]`` of host-CPU goodput, the
    configurations interleaved: run ``r`` of every one before run
    ``r + 1`` of any."""
    samples = {label: [] for label, _ in configs}
    for run in range(RUNS):
        for label, builders in configs:
            # One path: "Multipath 1-path (b)" attaches the plugin to a
            # single-homed client.
            scenario = Scenario(
                name="table3", workload=Workload(size=SIZE, app="bulk"),
                topology=Topology(d_ms=1, bw_mbps=10_000, single_homed=True),
                seed=run + 1)
            t0 = time.perf_counter()
            result = run_transfer(scenario, plugins=builders)
            wall = time.perf_counter() - t0
            assert result.completed
            samples[label].append(SIZE * 8 / wall / 1e6)  # Mbps of host CPU
    rows = []
    for label, _ in configs:
        med = statistics.median(samples[label])
        spread = (statistics.pstdev(samples[label]) / med) if med else 0.0
        rows.append((label, med, spread))
    return rows


def load_times():
    """Cold load (decode + verify + analyze + JIT + instantiate), known
    code (decode + instantiate a new plugin object of code the process
    has loaded) and a cached plugin instantiated on a new connection
    (§2.5)."""
    builders = {
        "Monitoring": build_monitoring_plugin,
        "Multipath": build_multipath_plugin,
        "FEC RLC": lambda: build_fec_plugin("rlc", "full"),
    }
    rows = {}
    for label, build in builders.items():
        conns = [QuicConnection(QuicConfiguration(is_client=True))
                 for _ in range(4)]
        # Cached = the second connection to instantiate a stored plugin:
        # the first one loaded its code, this one only builds a heap and
        # VM shells around it.  The store is emptied before the build, so
        # the plugin's content is new to the process.
        programs.clear()
        plugin = build()
        wire = plugin.serialize()
        cache = PluginCache()
        cache.store(plugin)
        cache.instantiate(plugin.name, conns[1]).attach()
        t0 = time.perf_counter()
        cache.instantiate(plugin.name, conns[2]).attach()
        cached = time.perf_counter() - t0
        assert (cache.misses, cache.hits) == (1, 1)

        # Cold load = what a host does with a plugin it has never seen:
        # decode the bytecode, statically verify it, compile it, build
        # the PREs.  The program store is emptied first.
        programs.clear()
        t0 = time.perf_counter()
        fresh = Plugin.deserialize(wire)
        PluginInstance(fresh, conns[0]).attach()
        cold = time.perf_counter() - t0

        # Known code = the same bytes received again: decoded into a new
        # plugin object whose programs the store already holds.
        t0 = time.perf_counter()
        PluginInstance(Plugin.deserialize(wire), conns[3]).attach()
        known = time.perf_counter() - t0
        rows[label] = (cold, known, cached)
    return rows


def test_table3_plugin_overhead(benchmark):
    results = benchmark.pedantic(lambda: goodputs(CONFIGS),
                                 rounds=1, iterations=1)
    loads = load_times()
    header = (f"{'Plugin':<22} {'x~ Goodput':>12} {'sigma/x~':>9}"
              "   (relative to no-plugin)")
    base = results[0][1]
    rows = []
    for label, med, spread in results:
        rows.append(f"{label:<22} {med:>9.1f} Mbps {spread:>8.1%}"
                    f"   {med / base:>6.2f}x")
    rows.append("")
    rows.append(f"{'Plugin load time':<22} {'cold':>12} {'known code':>12}"
                f" {'cached':>12}")
    for label, (cold, known, cached) in loads.items():
        rows.append(f"{label:<22} {cold * 1000:>9.2f} ms {known * 1000:>9.2f} ms"
                    f" {cached * 1e6:>9.1f} us")
    print_table("Table 3 — plugin overhead & load time", header, rows)
    write_rows("table3_overhead", header, rows)

    by_label = {label: med for label, med, _ in results}
    base = by_label["PQUIC, no plugin"]
    # Ordering (paper's story): every plugin costs something...
    assert by_label["Monitoring (a)"] < base
    assert by_label["Multipath 1-path (b)"] < base
    # ...one-path multipath and monitoring cost about the same.  The paper
    # has multipath the dearer of the two; here it reads 1-36 % *faster*
    # in every repetition on record (EXPERIMENTS.md, Table 3), so what is
    # asserted is the band, not the paper's order...
    assert (2 / 3 < by_label["Multipath 1-path (b)"] / by_label["Monitoring (a)"]
            < 3 / 2)
    # ...combining is still efficient (less than additive)...
    assert by_label["a and b"] > 0.5 * by_label["Multipath 1-path (b)"]
    # ...full FEC costs more than EOS FEC, and RLC more than XOR.
    assert by_label["FEC RLC"] < by_label["FEC RLC EOS"]
    assert by_label["FEC RLC"] < by_label["FEC XOR"] * 1.2
    assert by_label["FEC RLC"] < base
    # A cached plugin is an order of magnitude cheaper than a cold load.
    for label, (cold, _, cached) in loads.items():
        assert cached < cold / 10, label
