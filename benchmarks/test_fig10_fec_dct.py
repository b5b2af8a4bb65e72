"""Figure 10: DCT ratio between PQUIC with and without the FEC plugin.

Paper setup: the In-Flight Communications scenario — {d in [100, 400] ms,
bw in [0.3, 10] Mbps, l in [1, 8]%} — downloading an HTTP object with and
without FEC (sliding-window RLC, 5 repair symbols per 25 source symbols).
Left graph: only the end of stream protected; right: whole stream.

Expected shape: EOS protection helps or is neutral for larger transfers
(median ratio <= ~1); full protection costs bandwidth and can hurt large
transfers while helping small ones on very lossy links.
"""

import statistics

import pytest

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.experiments import INFLIGHT_RANGES, wsp_sample

from _util import FULL, cdf_summary, print_table, write_rows

SIZES = [1_500, 10_000, 50_000] + ([1_000_000] if FULL else [200_000])
N_POINTS = 10 if FULL else 4


#: Protection mode -> the RLC plugin's registry name.
FEC_PLUGINS = {"eos": "fec-rlc-eos", "full": "fec-rlc"}


def ratio_for(size, point, seed, mode):
    scenario = Scenario(
        name="fig10", workload=Workload(size=size, app="bulk"),
        topology=Topology(d_ms=point["d"], bw_mbps=point["bw"],
                          loss_pct=point["l"]),
        seed=seed)
    base = run_transfer(scenario)
    fec = run_transfer(scenario.with_(plugins=(FEC_PLUGINS[mode],)))
    if not (base.completed and fec.completed):
        return None
    return fec.dct / base.dct


def run_figure10():
    points = wsp_sample(INFLIGHT_RANGES, count=N_POINTS, seed=10)
    out = {"eos": {}, "full": {}}
    for mode in ("eos", "full"):
        for size in SIZES:
            ratios = []
            for i, point in enumerate(points):
                r = ratio_for(size, point, 300 + i, mode)
                if r is not None:
                    ratios.append(r)
            out[mode][size] = ratios
    return out


@pytest.mark.xfail(not FULL, strict=True, raises=AssertionError,
                   reason="ROADMAP Q(1): full protection beats EOS at the "
                          "largest size (default scale only: it passes "
                          "under REPRO_FULL=1)")
def test_fig10_fec_dct_ratio(benchmark):
    data = benchmark.pedantic(run_figure10, rounds=1, iterations=1)
    rows = []
    for mode in ("eos", "full"):
        rows.append(f"-- {mode.upper()} protection "
                    f"({'end of stream only' if mode == 'eos' else 'whole stream'})")
        for size in SIZES:
            rows.append(f"{size:>10}  {cdf_summary(data[mode][size])}")
    header = "DCT ratio PQUIC_FEC / PQUIC (paper: EOS helps large files; full protection costs bandwidth)"
    print_table("Figure 10 — FEC DCT ratio", header, rows)
    write_rows("fig10_fec_dct", header, rows)

    eos_all = [v for vs in data["eos"].values() for v in vs]
    full_all = [v for vs in data["full"].values() for v in vs]
    assert eos_all and full_all
    # Shape checks: on the largest size, EOS protection is no worse than
    # full protection in the median (the paper's headline finding).
    big = SIZES[-1]
    assert statistics.median(data["eos"][big]) <= (
        statistics.median(data["full"][big]) + 0.10
    )
    # FEC never catastrophically degrades the transfer.
    assert statistics.median(eos_all) < 1.5
