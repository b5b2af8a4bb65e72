"""Shared helpers for the benchmark/reproduction harness.

Each benchmark regenerates one table or figure of the paper and writes its
rows under ``results/``.  Set ``REPRO_FULL=1`` for the paper-scale sweeps
(the default configuration is sized to finish in minutes); their rows go
to ``results/full/``, so the default-scale files stay as committed.
"""

from __future__ import annotations

import os
import pathlib

FULL = os.environ.get("REPRO_FULL", "") == "1"

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
if FULL:
    RESULTS_DIR = RESULTS_DIR / "full"


def design_points(count_small: int, count_full: int):
    """How many WSP design points to run (paper: 139 x 9 repetitions)."""
    return count_full if FULL else count_small


def write_rows(name: str, header: str, rows: list) -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    with open(path, "w") as fh:
        fh.write(header.rstrip() + "\n")
        for row in rows:
            fh.write(str(row).rstrip() + "\n")
    return path


def print_table(title: str, header: str, rows: list) -> None:
    print(f"\n=== {title} ===")
    print(header)
    for row in rows:
        print(row)


def cdf_summary(values: list) -> str:
    """Compact CDF description: min / p25 / median / p75 / max."""
    if not values:
        return "no data"
    ordered = sorted(values)

    def pct(p: float) -> float:
        index = min(len(ordered) - 1, int(p * len(ordered)))
        return ordered[index]

    return (f"min={ordered[0]:.3f} p25={pct(0.25):.3f} "
            f"median={pct(0.5):.3f} p75={pct(0.75):.3f} "
            f"max={ordered[-1]:.3f} (n={len(ordered)})")
