"""Experimental design: the WSP space-filling sampler (§4).

"We define ranges on the possible values for the parameters presented and
use the WSP algorithm [88] to broadly sample this parameter space into 139
points.  Each parameter combination is run 9 times and the median run is
reported."

The WSP (Wootton–Sergent–Phan-Tan-Luu) algorithm selects a well-spread
subset of a candidate cloud: starting from a seed point, all candidates
closer than ``dmin`` are discarded and the nearest survivor becomes the
next point.  A bisection on ``dmin`` reaches the requested design size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

PAPER_DESIGN_POINTS = 139
#: The paper's default parameter ranges (§4): d in ms, bw in Mbps, l in %.
DEFAULT_RANGES = {"d": (2.5, 25.0), "bw": (5.0, 50.0), "l": 0.0}
#: The In-Flight Communications ranges of §4.4 (Rula et al.).
INFLIGHT_RANGES = {"d": (100.0, 400.0), "bw": (0.3, 10.0), "l": (1.0, 8.0)}


def _wsp_select(points: np.ndarray, dmin: float, start: int = 0) -> list:
    """One WSP pass: indices of the selected, well-spread subset."""
    n = len(points)
    alive = np.ones(n, dtype=bool)
    selected = []
    current = start
    while True:
        selected.append(current)
        alive[current] = False
        d = np.linalg.norm(points - points[current], axis=1)
        alive &= d >= dmin
        if not alive.any():
            break
        remaining = np.where(alive)[0]
        current = remaining[np.argmin(d[remaining])]
    return selected


def wsp_design(
    count: int,
    dimensions: int,
    seed: int = 0,
    candidates: int = 4096,
    tolerance: int = 0,
) -> np.ndarray:
    """A WSP design of ~``count`` points in the unit hypercube.

    Bisection on ``dmin`` until the selection size is within
    ``tolerance`` of ``count`` (or the bracket collapses; the closest
    design found is returned)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if dimensions < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    cloud = rng.random((candidates, dimensions))
    lo, hi = 0.0, float(np.sqrt(dimensions))
    best: Optional[list] = None
    for _ in range(60):
        dmin = (lo + hi) / 2
        selected = _wsp_select(cloud, dmin)
        if best is None or abs(len(selected) - count) < abs(len(best) - count):
            best = selected
        if abs(len(selected) - count) <= tolerance:
            best = selected
            break
        if len(selected) > count:
            lo = dmin  # too many points: raise the exclusion radius
        else:
            hi = dmin
    return cloud[best]


def wsp_sample(
    ranges: dict,
    count: int = PAPER_DESIGN_POINTS,
    seed: int = 0,
) -> list:
    """Sample named parameter ranges into ``count`` WSP design points.

    ``ranges`` maps name -> (low, high) or a fixed scalar.  Returns a list
    of dicts; fixed scalars are copied into every point."""
    varying = {k: v for k, v in ranges.items() if isinstance(v, (tuple, list))}
    fixed = {k: v for k, v in ranges.items() if not isinstance(v, (tuple, list))}
    if not varying:
        return [dict(fixed) for _ in range(count)]
    design = wsp_design(count, len(varying), seed=seed)
    out = []
    keys = sorted(varying)
    for row in design:
        point = dict(fixed)
        for value, key in zip(row, keys):
            lo, hi = varying[key]
            point[key] = lo + float(value) * (hi - lo)
        out.append(point)
    return out


def min_interpoint_distance(points: np.ndarray) -> float:
    """Quality metric of a design: smallest pairwise distance."""
    n = len(points)
    best = float("inf")
    for i in range(n):
        d = np.linalg.norm(points[i + 1:] - points[i], axis=1)
        if len(d):
            best = min(best, float(d.min()))
    return best
