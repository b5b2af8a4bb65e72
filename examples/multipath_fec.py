"""The §4.3 + §4.4 use cases: multipath and Forward Erasure Correction.

Part 1 — multipath speedup (Figure 9's metric): the same GET over one
path and over the two Figure-7 paths with the multipath plugin.

Part 2 — FEC in the In-Flight Communications scenario (Figure 10): a
satellite-like link (high delay, low bandwidth, 1-8% loss) with and
without the RLC FEC plugin, in both protection modes.

Run:  python examples/multipath_fec.py
"""

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.plugins.fec import build_fec_plugin
from repro.plugins.multipath import build_multipath_plugin


def download(size: int, topology: Topology, seed: int, plugins=()):
    """One GET over ``topology``, ``plugins`` attached on both ends."""
    return run_transfer(
        Scenario(name="multipath-fec", workload=Workload(size=size, app="bulk"),
                 topology=topology, seed=seed),
        plugins=plugins)


def multipath_demo() -> None:
    print("== Multipath (two symmetric 10 Mbps / 10 ms paths) ==")
    print(f"{'size':>10} {'1 path':>9} {'2 paths':>9} {'speedup':>8}")
    lab = Topology(d_ms=10, bw_mbps=10)
    for size in (10_000, 50_000, 1_000_000):
        single = download(size, lab, seed=4)
        multi = download(size, lab, seed=4, plugins=[build_multipath_plugin])
        speedup = single.dct / multi.dct
        print(f"{size:>10} {single.dct:>8.3f}s {multi.dct:>8.3f}s "
              f"{speedup:>8.2f}")
    print("Small files gain little (initial congestion window); large "
          "files approach 2x.\n")


def fec_demo() -> None:
    print("== FEC, In-Flight Communications (250 ms, 2 Mbps, 4% loss) ==")
    print(f"{'variant':>22} {'DCT':>9} {'recovered':>10}")
    inflight = Topology(d_ms=250, bw_mbps=2, loss_pct=4)
    base = download(200_000, inflight, seed=9)
    print(f"{'no FEC':>22} {base.dct:>8.2f}s {'-':>10}")
    for ecc in ("xor", "rlc"):
        for mode in ("eos", "full"):
            fec = download(200_000, inflight, seed=9, plugins=[
                lambda e=ecc, m=mode: build_fec_plugin(e, m)])
            recovered = sum(
                inst.runtime.fec_state.recovered_total
                for inst in fec.instances
                if hasattr(inst.runtime, "fec_state")
            )
            label = f"FEC {ecc.upper()} {mode}"
            print(f"{label:>22} {fec.dct:>8.2f}s {recovered:>10}")
    print("Repair symbols recover tail losses without waiting a "
          "retransmission RTT on this 500 ms-RTT link.")


def main() -> None:
    multipath_demo()
    fec_demo()


if __name__ == "__main__":
    main()
