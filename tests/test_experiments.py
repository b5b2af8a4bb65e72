"""WSP design sampler, the TCP baseline and figure-style transfers
through the one driver."""

import numpy as np
import pytest

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.experiments import run_tcp_direct, wsp_design, wsp_sample
from repro.experiments.design import min_interpoint_distance


def lab(size, app="bulk", d_ms=10, bw_mbps=20, loss_pct=0.0, seed=1,
        **fields):
    return Scenario(name="lab", workload=Workload(size=size, app=app),
                    topology=Topology(d_ms=d_ms, bw_mbps=bw_mbps,
                                      loss_pct=loss_pct),
                    seed=seed, **fields)


class TestWsp:
    def test_design_size_close_to_target(self):
        design = wsp_design(50, 3, seed=1)
        assert abs(len(design) - 50) <= 5

    def test_points_in_unit_cube(self):
        design = wsp_design(30, 2, seed=2)
        assert design.min() >= 0.0
        assert design.max() <= 1.0

    def test_deterministic(self):
        a = wsp_design(25, 3, seed=3)
        b = wsp_design(25, 3, seed=3)
        assert np.array_equal(a, b)

    def test_better_spread_than_random(self):
        """The WSP selection's minimum pairwise distance beats plain
        random sampling of the same size."""
        design = wsp_design(40, 2, seed=4)
        rng = np.random.default_rng(4)
        random_points = rng.random((len(design), 2))
        assert (min_interpoint_distance(design)
                > 2 * min_interpoint_distance(random_points))

    def test_sample_maps_ranges(self):
        points = wsp_sample(
            {"d": (2.5, 25.0), "bw": (5.0, 50.0), "l": 0.0},
            count=20, seed=5,
        )
        assert len(points) == len(points)
        for p in points:
            assert 2.5 <= p["d"] <= 25.0
            assert 5.0 <= p["bw"] <= 50.0
            assert p["l"] == 0.0

    def test_sample_all_fixed(self):
        points = wsp_sample({"d": 5.0}, count=3)
        assert points == [{"d": 5.0}] * 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            wsp_design(0, 2)
        with pytest.raises(ValueError):
            wsp_design(5, 0)


class TestHarness:
    def test_quic_transfer_runs(self):
        result = run_transfer(lab(20_000))
        assert result.completed
        assert result.dct > 0.02  # at least one RTT

    def test_tcp_direct_runs(self):
        assert run_tcp_direct(lab(20_000)).completed

    def test_tunnel_runs(self):
        result = run_transfer(lab(20_000, app="tunnel", plugins=("datagram",)))
        assert result.completed

    def test_seeded_runs_reproducible(self):
        scenario = lab(30_000, bw_mbps=10, loss_pct=3, seed=5)
        assert run_transfer(scenario).dct == run_transfer(scenario).dct

    def test_different_seeds_differ_under_loss(self):
        a = run_transfer(lab(100_000, bw_mbps=10, loss_pct=5, seed=5))
        b = run_transfer(lab(100_000, bw_mbps=10, loss_pct=5, seed=6))
        assert a.dct != b.dct

    def test_initial_window_override(self):
        small = run_transfer(lab(40_000, d_ms=25, bw_mbps=50,
                                 initial_window=16 * 1024))
        large = run_transfer(lab(40_000, d_ms=25, bw_mbps=50,
                                 initial_window=32 * 1024))
        # Figure 9's explanation: a 32 kB initial window finishes small
        # transfers in fewer RTTs.
        assert large.dct < small.dct

    def test_vpn_overhead_ratio_band(self):
        """Figure 8: the DCT ratio stays near 1, bounded by per-packet
        overhead."""
        scenario = lab(50_000, app="tunnel", seed=2, plugins=("datagram",))
        ratio = run_transfer(scenario).dct / run_tcp_direct(scenario).dct
        assert 0.9 < ratio < 1.25
