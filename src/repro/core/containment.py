"""Fault containment and recovery for misbehaving plugins.

The paper's safety claim (§2.1) is that the PRE *contains* pluglets:
memory monitoring plus a termination proof.  Both defenses can be
wrong-sided at runtime — a proof may have been obtained against different
inputs, a helper may fault, a pluglet may misuse the API — so this module
adds the recovery half of containment:

* **Failure classification.**  A :class:`~repro.vm.interpreter.MemoryViolation`
  keeps the paper's semantics — the plugin is removed *and the connection
  is terminated* (§2.1 verbatim).  Every other runtime fault
  (:class:`~repro.vm.interpreter.FuelExhausted`, generic execution errors,
  :class:`~repro.core.api.ApiViolation`, protoop loops) is *transient*:
  the plugin is detached and the connection proceeds pluginless.

* **Quarantine with exponential backoff.**  Each crash is recorded in a
  :class:`QuarantineRegistry` (shared across connections through the
  :class:`~repro.core.cache.PluginCache`); a quarantined plugin cannot be
  re-instantiated until its backoff expires, and a plugin that keeps
  crashing is blocklisted outright.

Recovery events are emitted through protocol-operation event anchors
(``plugin_fault``, ``plugin_quarantined``, ``plugin_blocklisted``) so the
qlog tracer, the monitoring plugin and
:class:`~repro.trace.metrics.ConnectionMetrics` observe them like any
transport event.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.vm.interpreter import MemoryViolation


class FailureClass(enum.Enum):
    """How a pluglet runtime failure must be handled."""

    #: Memory-safety violation: remove the plugin and terminate the
    #: connection (§2.1).
    FATAL = "fatal"
    #: Bounded-resource or API failure: detach the plugin, quarantine it,
    #: keep the connection alive.
    TRANSIENT = "transient"


def classify_failure(exc: BaseException) -> FailureClass:
    """Map a pluglet runtime exception to a :class:`FailureClass`."""
    if isinstance(exc, MemoryViolation):
        return FailureClass.FATAL
    return FailureClass.TRANSIENT


class PluginQuarantined(Exception):
    """Instantiation refused: the plugin is quarantined or blocklisted."""


@dataclass
class CrashRecord:
    """Crash history of one plugin name."""

    crashes: int = 0
    last_crash: float = 0.0
    quarantined_until: float = 0.0
    blocklisted: bool = False
    reasons: list = field(default_factory=list)


class QuarantineRegistry:
    """Crash bookkeeping shared across connections.

    Every transient crash quarantines the plugin for
    ``backoff_base * backoff_factor**(crashes - 1)`` seconds (capped at
    ``backoff_max``); ``blocklist_threshold`` crashes blocklist it for
    good.  Times are simulation-clock seconds (``conn.now``)."""

    def __init__(
        self,
        backoff_base: float = 1.0,
        backoff_factor: float = 2.0,
        backoff_max: float = 300.0,
        blocklist_threshold: int = 5,
    ):
        if backoff_base <= 0 or backoff_factor < 1:
            raise ValueError("backoff must grow: base > 0, factor >= 1")
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.blocklist_threshold = blocklist_threshold
        self._records: dict[str, CrashRecord] = {}

    # --- recording ---------------------------------------------------------

    def record_crash(self, name: str, now: float, reason: str = "") -> CrashRecord:
        rec = self._records.setdefault(name, CrashRecord())
        rec.crashes += 1
        rec.last_crash = now
        if reason:
            rec.reasons.append(reason)
        backoff = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (rec.crashes - 1),
        )
        rec.quarantined_until = now + backoff
        if rec.crashes >= self.blocklist_threshold:
            rec.blocklisted = True
        return rec

    def forgive(self, name: str) -> None:
        """Drop the crash history (operator override)."""
        self._records.pop(name, None)

    # --- queries -----------------------------------------------------------

    def record(self, name: str) -> Optional[CrashRecord]:
        return self._records.get(name)

    def available(self, name: str, now: float) -> bool:
        rec = self._records.get(name)
        if rec is None:
            return True
        return not rec.blocklisted and now >= rec.quarantined_until

    def check(self, name: str, now: float) -> None:
        """Raise :class:`PluginQuarantined` unless ``name`` may run."""
        rec = self._records.get(name)
        if rec is None:
            return
        if rec.blocklisted:
            raise PluginQuarantined(
                f"plugin {name} blocklisted after {rec.crashes} crashes"
            )
        if now < rec.quarantined_until:
            raise PluginQuarantined(
                f"plugin {name} quarantined until t={rec.quarantined_until:.3f} "
                f"(crash #{rec.crashes})"
            )

    def stats(self) -> dict:
        """Registry-wide counters for monitoring/experiments."""
        return {
            "plugins_crashed": len(self._records),
            "total_crashes": sum(r.crashes for r in self._records.values()),
            "blocklisted": sorted(
                n for n, r in self._records.items() if r.blocklisted
            ),
        }


class ContainmentPolicy:
    """Per-connection failure handler consulted by :class:`PluginInstance`.

    Attach one to a connection (``policy.attach(conn)``); without a policy
    the instance keeps the paper's terminate-on-any-failure semantics."""

    def __init__(self, registry: Optional[QuarantineRegistry] = None):
        self.registry = registry or QuarantineRegistry()
        #: (plugin, pluglet, FailureClass, reason) per observed failure.
        self.faults: list = []

    def attach(self, conn) -> "ContainmentPolicy":
        conn.containment = self
        return self

    # ------------------------------------------------------------------

    @staticmethod
    def _emit(conn, name: str, *args) -> None:
        """Emit one of the recovery events (``plugin_fault``,
        ``plugin_quarantined``, ``plugin_blocklisted``: extensions, not
        part of the paper's census), tolerating absent tables / re-entry."""
        table = getattr(conn, "protoops", None)
        if table is None:
            return
        try:
            table.emit(conn, name, *args)
        except Exception:
            # An observer of a fault event must never widen the fault.
            pass

    def on_pluglet_failure(self, instance, pluglet_name: str,
                           exc: BaseException) -> bool:
        """Handle a runtime failure.  Returns True when the failure was
        contained (plugin detached, connection proceeds); False when the
        caller must keep the fatal §2.1 path."""
        conn = instance.conn
        now = getattr(conn, "now", 0.0)
        failure_class = classify_failure(exc)
        plugin_name = instance.plugin.name
        self.faults.append((plugin_name, pluglet_name, failure_class, str(exc)))
        self._emit(conn, "plugin_fault", plugin_name, pluglet_name,
                   failure_class.value, str(exc))
        if failure_class is FailureClass.FATAL:
            return False
        instance.detach()
        rec = self.registry.record_crash(plugin_name, now, str(exc))
        self._emit(conn, "plugin_quarantined", plugin_name, rec.crashes,
                   rec.quarantined_until)
        if rec.blocklisted:
            self._emit(conn, "plugin_blocklisted", plugin_name)
        return True
