"""Differential conformance harness.

The PRE JIT (``REPRO_JIT``) promises to change performance, never
semantics, and pluglets promise to extend the protocol, never alter it.
This package turns both promises into a first-class oracle: declarative
scenarios (topology × workload × plugin set × fault schedule) run under
the JIT and under the interpreter it is checked against, invariant
oracles compare the runs, and a delta-debugging shrinker reduces any
failure to the smallest scenario that still reproduces it, saved as a
self-contained repro file.

Entry points: ``repro conform`` (CLI), :func:`run_conformance`,
:func:`shrink`, the ``SUITES`` registry, and :func:`random_scenarios`
for seeded sweeps.  See ``docs/conformance.md``.
"""

from .engine import (
    REPRO_SCHEMA,
    ScenarioVerdict,
    load_repro,
    repro_dict,
    run_conformance,
    run_suite,
    save_repro,
)
from .oracles import OracleFailure, check_cross, check_run, check_transparency
from .plugins import OBSERVER_PLUGINS, PLUGIN_BUILDERS, SWEEP_PLUGINS, build_plugin
from .runner import RunReport, run_scenario
from .scenario import (
    ALL_MODES,
    FAST_MODES,
    FaultEvent,
    Mode,
    Scenario,
    Topology,
    Workload,
    parse_modes,
    random_scenarios,
)
from .shrink import ShrinkResult, ddmin, shrink
from .suites import SUITES, load_suite

__all__ = [
    "ALL_MODES",
    "FAST_MODES",
    "FaultEvent",
    "Mode",
    "OBSERVER_PLUGINS",
    "OracleFailure",
    "PLUGIN_BUILDERS",
    "REPRO_SCHEMA",
    "RunReport",
    "SUITES",
    "SWEEP_PLUGINS",
    "Scenario",
    "ScenarioVerdict",
    "ShrinkResult",
    "Topology",
    "Workload",
    "build_plugin",
    "check_cross",
    "check_run",
    "check_transparency",
    "ddmin",
    "load_repro",
    "load_suite",
    "parse_modes",
    "random_scenarios",
    "repro_dict",
    "run_conformance",
    "run_scenario",
    "run_suite",
    "save_repro",
    "shrink",
]
