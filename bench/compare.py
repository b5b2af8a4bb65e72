#!/usr/bin/env python3
"""Compare two benchmark sets written by ``run.py --all``.

    python3 bench/compare.py base/set.json new/set.json

For every workload × end-to-end metric it prints the base median, the
new median, their ratio, the metric's bound from ``BENCHMARK.json`` and
a verdict:

``better``      the new median is better by more than the base's own
                run-to-run spread (interquartile range);
``within``      not worse than the base by more than the bound;
``worse``       worse than the base by more than the bound;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the runs cannot tell — unless every new run
                beats (or loses to) every base run, which decides it.

Exit status is non-zero on any ``worse`` and on any rise of the failed
operations ratio.  Values that depend on the seed alone (simulated-time
metrics, the program's counters) are listed when they differ; with
``--same-code`` (what ``run.py --selfcheck`` passes) a difference also
fails, since two sets of the same code must agree on them to the bit.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: End-to-end metrics that depend on the seed alone, never on the host.
DETERMINISTIC = ("sim_goodput_mbps", "wire_efficiency")


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(base: list, new: list, better: str, bound: float) -> tuple:
    """``(verdict, base median, new median, ratio)``."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    ratio = new_median / base_median
    # Signed change, positive = improvement.
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    sign = 1 if better == "higher" else -1
    new_wins_all = min(sign * v for v in new) > max(sign * v for v in base)
    new_loses_all = max(sign * v for v in new) < min(sign * v for v in base)
    noisy = max(spread(base), spread(new)) > bound
    if noisy and not (new_wins_all or new_loses_all):
        result = "unresolved"
    elif gain < -bound:
        result = "worse"
    elif gain > spread(base):
        result = "better"
    else:
        result = "within"
    return result, base_median, new_median, ratio


def failed_ratio(workload: dict) -> float:
    runs = workload["runs"] + [workload["traced"]]
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def deterministic_differences(base: dict, new: dict) -> list:
    """Names of seed-determined values that differ between two sets run
    with the same seeds: simulated-time metrics of each end-to-end run
    and the program's counters of the traced run.  (``host.*`` and
    ``bench.*`` describe the host and the harness, not the program.)"""
    differing = []
    for name in DETERMINISTIC:
        if ([r["metrics"][name]["value"] for r in base["runs"]]
                != [r["metrics"][name]["value"] for r in new["runs"]]):
            differing.append(name)
    new_traced = new["traced"]["metrics"]
    for name, entry in base["traced"]["metrics"].items():
        if (entry["unit"] == "count"
                and not name.startswith(("host.", "bench."))
                and new_traced.get(name, entry)["value"] != entry["value"]):
            differing.append(name)
    return differing


def compare(base: dict, new: dict, same_code: bool = False) -> int:
    status = 0
    print(f"{'workload':20s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in base or workload not in new:
            print(f"{workload:20s} missing from one set")
            status = 1
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [[run["metrics"][name]["value"] for run in side[workload]["runs"]]
                      for side in (base, new)]
            result, b, n, ratio = verdict(
                values[0], values[1], metric["better"], metric["bound"])
            print(f"{workload:20s} {name:18s} {b:12.5g} {n:12.5g} "
                  f"{ratio:7.3f} {metric['bound']:6.2f}  {result}")
            if result == "worse":
                status = 1
        failed = [failed_ratio(side[workload]) for side in (base, new)]
        rose = failed[1] > failed[0]
        print(f"{workload:20s} {'failed_ops_ratio':18s} {failed[0]:12.5g} "
              f"{failed[1]:12.5g} {'':7s} {'0':>6s}  "
              f"{'worse' if rose else 'within'}")
        if rose:
            status = 1
        differing = deterministic_differences(base[workload], new[workload])
        if differing:
            print(f"{workload:20s} seed-determined values differ: "
                  f"{', '.join(differing)}")
            if same_code:
                status = 1
    return status


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    same_code = "--same-code" in argv
    if same_code:
        argv.remove("--same-code")
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    return compare(base, new, same_code)


if __name__ == "__main__":
    sys.exit(main())
