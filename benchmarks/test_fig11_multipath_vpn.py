"""Figure 11: DCT ratio of TCP in and outside a *multipath* VPN tunnel.

Paper (§4.5): the datagram and multipath plugins combined — "as file size
grows the benefits of multipath become clear.  By spreading the traffic
over the two symmetric paths, our combined plugins reach a DCT ratio that
tends to 0.55."
"""

import statistics

import pytest

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.experiments import DEFAULT_RANGES, run_tcp_direct, wsp_sample

from _util import FULL, cdf_summary, print_table, write_rows

SIZES = [1_500, 10_000, 50_000, 1_000_000] + ([10_000_000] if FULL else [])
N_POINTS = 8 if FULL else 3


def run_figure11():
    points = wsp_sample(DEFAULT_RANGES, count=N_POINTS, seed=11)
    ratios = {size: [] for size in SIZES}
    for i, point in enumerate(points):
        for size in SIZES:
            scenario = Scenario(
                name="fig11", workload=Workload(size=size, app="tunnel"),
                topology=Topology(d_ms=point["d"], bw_mbps=point["bw"]),
                plugins=("datagram", "multipath"), seed=400 + i)
            direct = run_tcp_direct(scenario)
            tunnel = run_transfer(scenario)
            if direct.completed and tunnel.completed:
                ratios[size].append(tunnel.dct / direct.dct)
    return ratios


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP R: the tunnel does not run at line rate")
def test_fig11_multipath_vpn_ratio(benchmark):
    ratios = benchmark.pedantic(run_figure11, rounds=1, iterations=1)
    header = ("size        DCT in/out CDF  "
              "(paper: ~1 for short transfers, tending to 0.55 for large)")
    rows = [f"{size:>10}  {cdf_summary(values)}"
            for size, values in ratios.items()]
    print_table("Figure 11 — multipath VPN DCT ratio", header, rows)
    write_rows("fig11_multipath_vpn", header, rows)

    # Shape: no benefit for short transfers...
    small_median = statistics.median(ratios[SIZES[0]])
    assert small_median > 0.85
    # ...clear benefit for the largest size (two paths: ratio well below 1,
    # toward the paper's 0.55 asymptote).
    big_median = statistics.median(ratios[SIZES[-1]])
    assert big_median < 0.8
    assert big_median < small_median
