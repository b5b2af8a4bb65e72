"""Delta-debugging shrinker: minimize a failing scenario.

Given a scenario whose conformance verdict fails, produce the smallest
scenario (fewest fault events, smallest workload, fewest plugins, least
topology noise) that *still* fails.  The result is what gets saved as a
repro file: a three-line scenario a human can stare at instead of a
hundred-event fault schedule.

The fault schedule is minimized with Zeller's ddmin; the workload size
by geometric descent; plugins and topology noise by greedy removal.
Every candidate evaluation is a full conformance sweep, so results are
cached by scenario content key and the whole procedure is deterministic:
the same failing scenario always shrinks to the same minimal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from .engine import run_conformance
from .scenario import ALL_MODES, Mode, Scenario, Topology, Workload

#: Never shrink the workload below this (a transfer still has to happen).
MIN_WORKLOAD = 1_000


@dataclass
class ShrinkResult:
    original: Scenario
    minimal: Scenario
    #: Total predicate evaluations (cache misses), for test determinism.
    evaluations: int = 0
    #: The failures the minimal scenario produces.
    failures: list = field(default_factory=list)


def ddmin(items: List, still_fails: Callable[[List], bool]) -> List:
    """Zeller's minimizing delta debugging over a list of items:
    returns a subset that still fails and from which no chunk of any
    granularity can be removed without the failure disappearing."""
    if still_fails([]):
        return []
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk:]
            if candidate != items and still_fails(candidate):
                items = candidate
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), 2 * n)
    return items


def shrink(scenario: Scenario,
           modes: Sequence[Mode] = ALL_MODES) -> ShrinkResult:
    """Minimize ``scenario`` while :func:`run_conformance` keeps failing.

    If the input does not fail under ``modes`` it is returned unchanged
    (``minimal == original``, no failures recorded)."""
    modes = tuple(modes)
    cache: dict = {}
    result = ShrinkResult(original=scenario, minimal=scenario)

    def fails(candidate: Scenario) -> bool:
        key = candidate.key()
        if key not in cache:
            result.evaluations += 1
            cache[key] = run_conformance(candidate, modes).failures
        return bool(cache[key])

    if not fails(scenario):
        return result
    current = scenario

    # 1. Minimize the fault schedule (the usual bulk of a sweep case).
    faults = ddmin(list(current.faults),
                   lambda fs: fails(current.with_(faults=tuple(fs))))
    current = current.with_(faults=tuple(faults))

    # 2. Shrink the workload geometrically, then probe the floor.
    size = current.workload.size
    while size // 2 >= MIN_WORKLOAD:
        candidate = current.with_(workload=Workload(size=size // 2))
        if not fails(candidate):
            break
        current = candidate
        size //= 2
    if size > MIN_WORKLOAD:
        candidate = current.with_(workload=Workload(size=MIN_WORKLOAD))
        if fails(candidate):
            current = candidate

    # 3. Drop plugins one at a time (innocent bystanders leave; the
    #    guilty plugin stays because removing it makes the run pass).
    for name in list(current.plugins):
        remaining = tuple(p for p in current.plugins if p != name)
        candidate = current.with_(plugins=remaining)
        if fails(candidate):
            current = candidate

    # 4. Quiet the topology: drop ambient loss if the failure survives.
    if current.topology.loss_pct > 0:
        candidate = current.with_(topology=Topology(
            kind=current.topology.kind,
            d_ms=current.topology.d_ms,
            bw_mbps=current.topology.bw_mbps,
            loss_pct=0.0))
        if fails(candidate):
            current = candidate

    result.minimal = current.with_(name=f"{scenario.name}.min")
    result.failures = list(cache[current.key()])
    return result
