"""The invariant oracle catalog.

Two layers:

* **per-run oracles** (:func:`check_run`) hold for every run in
  isolation — completion, delivered-byte digest, the send-side
  conservation ledger and trace-schema validity;
* **cross-run oracles** (:func:`check_cross`) compare the runs of one
  scenario across execution modes, which must be *bit-identical*:
  delivered bytes, stats, per-pluglet invocation/fuel rows, host protoop
  dispatch counts, and the deterministic trace stream.

An oracle failure is data (:class:`OracleFailure`), never an exception:
the engine aggregates them and the shrinker minimizes the scenario that
produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .runner import RunReport
from .scenario import Scenario


@dataclass(frozen=True)
class OracleFailure:
    oracle: str
    mode: str
    detail: str

    def format(self) -> str:
        return f"{self.oracle}[{self.mode}]: {self.detail}"


def _fail(failures: list, oracle: str, mode: str, detail: str) -> None:
    failures.append(OracleFailure(oracle=oracle, mode=mode, detail=detail))


# --- per-run oracles -------------------------------------------------------

def check_run(report: RunReport, scenario: Scenario) -> List[OracleFailure]:
    failures: list = []
    mode = report.mode
    if report.error is not None:
        _fail(failures, "no-crash", mode, report.error)
        return failures
    if not report.completed:
        _fail(failures, "completion", mode,
              f"transfer incomplete: {report.received}/"
              f"{scenario.workload.size} bytes within {scenario.timeout}s")
        return failures
    if report.digest != scenario.expected_digest():
        _fail(failures, "delivered-bytes", mode,
              f"delivered payload digest {report.digest[:16]} != expected "
              f"{scenario.expected_digest()[:16]}")
    for side, ledger in report.ledger.items():
        accounted = ledger["acked"] + ledger["lost"] + ledger["in_flight"]
        if ledger["sent"] != accounted:
            _fail(failures, "conservation", mode,
                  f"{side}: packets_sent {ledger['sent']} != acked "
                  f"{ledger['acked']} + lost {ledger['lost']} + in_flight "
                  f"{ledger['in_flight']}")
    if report.schema_errors:
        _fail(failures, "trace-schema", mode,
              f"{len(report.schema_errors)} invalid trace event(s); first: "
              f"{report.schema_errors[0]}")
    if report.trace_events == 0:
        _fail(failures, "trace-schema", mode, "trace stream is empty")
    return failures


# --- cross-run oracles -----------------------------------------------------

#: Fields that must be bit-identical across modes (beside the delivered
#: bytes, which get their own oracle).
_PARITY_FIELDS = (
    ("stats", "per-side stats ledgers"),
    ("ledger", "send-side conservation samples"),
    ("pluglet_rows", "per-pluglet invocation/fuel rows"),
    ("protoop_runs", "host protoop dispatch counts"),
    ("metric_counters", "metrics counter snapshot"),
    ("trace_digest", "deterministic trace stream"),
    ("fault_stats", "fault injector decisions"),
    ("duration", "simulated completion time"),
    ("plugins_rejected", "attach-time plugin rejections"),
)


def first_difference(a: dict, b: dict) -> str:
    """The first dotted path at which two nested dicts disagree, as
    ``stats.client.packets_sent: 412 != 409``."""
    flat_a, flat_b = _flatten(a), _flatten(b)
    for key in sorted(set(flat_a) | set(flat_b)):
        if flat_a.get(key) != flat_b.get(key):
            return f"{key}: {flat_a.get(key)!r} != {flat_b.get(key)!r}"
    return "values differ"


def check_cross(reports: List[RunReport],
                scenario: Scenario) -> List[OracleFailure]:
    failures: list = []
    usable = [r for r in reports if r.error is None and r.completed]
    if len(usable) < 2:
        return failures

    reference = usable[0]
    for report in usable[1:]:
        if report.digest != reference.digest:
            _fail(failures, "cross-mode-bytes", report.mode,
                  f"delivered bytes differ from {reference.mode}: "
                  f"{report.digest[:16]} != {reference.digest[:16]}")
        for field_name, label in _PARITY_FIELDS:
            mine = getattr(report, field_name)
            theirs = getattr(reference, field_name)
            if mine == theirs:
                continue
            if isinstance(mine, dict) and isinstance(theirs, dict):
                detail = first_difference(mine, theirs)
            else:
                detail = f"{mine!r} != {theirs!r}"
            _fail(failures, "mode-parity", report.mode,
                  f"{label} diverge from {reference.mode}: {detail}")
    return failures


def _flatten(tree: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=path + "."))
        else:
            flat[path] = value
    return flat


def check_transparency(plugged: RunReport, bare: RunReport,
                       scenario: Scenario) -> List[OracleFailure]:
    """Observer plugins must not change protocol behavior at all: the
    same scenario with the plugin set stripped must be bit-identical
    (Pluginizing QUIC's core safety claim, checked end to end)."""
    failures: list = []
    if bare.error is not None or not bare.completed:
        _fail(failures, "observer-transparency", plugged.mode,
              f"baseline (no plugins) run failed: {bare.error or 'incomplete'}")
        return failures
    if plugged.digest != bare.digest:
        _fail(failures, "observer-transparency", plugged.mode,
              "delivered bytes change when observer plugins attach")
    if plugged.stats != bare.stats:
        _fail(failures, "observer-transparency", plugged.mode,
              "connection stats change when observer plugins attach: " +
              first_difference(plugged.stats, bare.stats))
    if plugged.duration != bare.duration:
        _fail(failures, "observer-transparency", plugged.mode,
              f"completion time changes when observer plugins attach: "
              f"{plugged.duration!r} != {bare.duration!r}")
    return failures
