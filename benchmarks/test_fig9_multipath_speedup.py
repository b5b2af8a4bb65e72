"""Figure 9: multipath speedup over two symmetric paths.

Paper: "with small files, there is little gain in using two paths [...]
With larger files, both mp-quic and our plugin efficiently use the two
available paths.  The speedup ratio of both [...] tends to reach 2 with
10 MB files."  The mp-quic baseline differs by its 32 kB initial path
window (inherited from quic-go), twice PQUIC's 16 kB — which explains its
small gain on 50 kB files.
"""

import statistics

import pytest

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.experiments import DEFAULT_RANGES, wsp_sample

from _util import FULL, print_table, write_rows

SIZES = [10_000, 50_000, 1_000_000] + ([10_000_000] if FULL else [])
N_POINTS = 8 if FULL else 3
#: Paper scale only: 10 MB at the two corners of the §4 ranges, (d ms,
#: bw Mbit/s) -> the least speed-up asserted.  The upper corner has the
#: largest bandwidth-delay product; a fixed 256 KiB stream window held
#: it to 1.05 (EXPERIMENTS.md, "Known deviation").
CORNERS = {(2.5, 5): 1.9, (25, 50): 1.5} if FULL else {}


def speedup_for(size, d, bw, seed, initial_window):
    scenario = Scenario(
        name="fig9", workload=Workload(size=size, app="bulk"),
        topology=Topology(d_ms=d, bw_mbps=bw), seed=seed,
        initial_window=initial_window)
    single = run_transfer(scenario)
    multi = run_transfer(scenario.with_(plugins=("multipath",)))
    if not (single.completed and multi.completed):
        return None
    return single.dct / multi.dct


def run_figure9():
    points = wsp_sample(DEFAULT_RANGES, count=N_POINTS, seed=9)
    table = {}
    for size in SIZES:
        plugin_ratios = []
        mpquic_ratios = []
        for i, point in enumerate(points):
            r = speedup_for(size, point["d"], point["bw"], 200 + i,
                            initial_window=16 * 1024)  # PQUIC default
            if r:
                plugin_ratios.append(r)
            r = speedup_for(size, point["d"], point["bw"], 200 + i,
                            initial_window=32 * 1024)  # mp-quic-like
            if r:
                mpquic_ratios.append(r)
        table[size] = (statistics.median(plugin_ratios),
                       statistics.median(mpquic_ratios))
    corners = {corner: speedup_for(10_000_000, *corner, 1,
                                   initial_window=16 * 1024)
               for corner in CORNERS}
    return table, corners


@pytest.mark.xfail(not FULL, strict=True, raises=AssertionError,
                   reason="ROADMAP R: the 1 MB floor shares Fig. 11's cause "
                          "(default scale only: it passes under REPRO_FULL=1)")
def test_fig9_multipath_speedup(benchmark):
    table, corners = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    header = (f"{'size':>10} {'plugin speedup':>15} {'mp-quic speedup':>16}"
              "   (paper: ~1 small, ->2 at 10MB)")
    rows = [f"{size:>10} {table[size][0]:>15.2f} {table[size][1]:>16.2f}"
            for size in SIZES]
    rows += [f"  10 MB at d = {d} ms, bw = {bw} Mbit/s: plugin speedup "
             f"{speedup:.2f}" for (d, bw), speedup in corners.items()]
    print_table("Figure 9 — multipath speedup", header, rows)
    write_rows("fig9_multipath_speedup", header, rows)

    for corner, least in CORNERS.items():
        assert corners[corner] >= least, (corner, corners[corner])

    small_plugin, _small_mp = table[SIZES[0]]
    big_plugin, big_mp = table[SIZES[-1]]
    # Shape: little gain for small files...
    assert small_plugin < 1.4
    # ...growing toward 2x: at 1 MB the paper's curve sits around 1.5;
    # only the 10 MB point (REPRO_FULL=1) approaches 2.
    floor = 1.7 if SIZES[-1] >= 10_000_000 else 1.35
    assert big_plugin > floor
    assert big_mp > floor
    # Monotone-ish growth with file size for the plugin.
    speedups = [table[s][0] for s in SIZES]
    assert speedups[-1] > speedups[0]
