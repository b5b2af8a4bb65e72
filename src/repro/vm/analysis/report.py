"""Structured results of the PRE static analyzer.

An :class:`AnalysisReport` carries two kinds of information:

* **diagnostics** — rule violations (:class:`Diagnostic`) with a stable
  rule id, a severity and, where meaningful, the program counter of the
  offending instruction;
* **facts** — proofs about the whole program ("all memory accesses stay
  in bounds", "loop-free", "worst-case fuel ≤ N") plus per-instruction
  memory-region facts that let the JIT drop its inlined monitor
  (:mod:`repro.vm.jit`), and the helper call sites the effect summaries
  are derived from — so one abstract interpretation serves all three.

The report is pure data: producing it never raises, so callers decide
their own policy (reject, warn, lint, specialize).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .absint import CallSite


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the program certainly misbehaves (or violates the
    paper's §2.1 acceptance checks); ``WARNING`` flags suspect but not
    certainly-wrong code; ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation found by the analyzer."""

    rule: str  # stable rule id, e.g. "PRE104"
    severity: Severity
    message: str  # reason without location suffix
    pc: Optional[int] = None  # offending instruction, if localizable
    pluglet: str = ""  # filled in by plugin-level lint

    def format(self) -> str:
        where = f" at instruction {self.pc}" if self.pc is not None else ""
        who = f"{self.pluglet}: " if self.pluglet else ""
        return f"{who}{self.severity}[{self.rule}]: {self.message}{where}"

    def __str__(self) -> str:
        return self.format()


#: Per-instruction memory proof: the access at this pc always lands in
#: this region ("stack" or "heap"), so no runtime bounds check is needed.
MemFacts = Dict[int, str]


@dataclass(frozen=True)
class LoopBound:
    """Proven iteration bound for one natural loop."""

    head: int  # pc of the loop-head block
    trips: int  # worst-case iterations per invocation
    ranking: str  # human-readable ranking-function description


@dataclass(frozen=True)
class FuelCertificate:
    """Static proof of a worst-case fuel bound for a *loopy* program.

    Loop-free programs get their bound from the CFG's longest path; this
    certificate extends the proof to programs with loops by combining
    the termination checker's ranking functions with the interval
    analysis: each loop's trip count is bounded, so total fuel is the
    acyclic longest path plus every loop's trips x worst-case lap cost.
    When the bound fits the runtime budget the JIT can elide batched
    fuel checks entirely — the certificate changes performance, never
    semantics."""

    fuel_bound: int
    helper_bound: int
    loops: Tuple[LoopBound, ...] = ()

    def describe(self) -> str:
        laps = ", ".join(f"loop@{lb.head}<={lb.trips} ({lb.ranking})"
                         for lb in self.loops)
        return (f"fuel<={self.fuel_bound} helpers<={self.helper_bound}"
                f" [{laps}]")


@dataclass
class AnalysisReport:
    """Everything the analyzer learned about one program."""

    instruction_count: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Heap size (bytes) the memory proofs were computed against; a proof
    #: is valid for any plugin memory at least this large.
    heap_size: int = 0
    #: True when every reachable memory access is proven in-bounds.
    memory_safe: bool = False
    #: True when the CFG has no cycle among reachable blocks.
    loop_free: bool = False
    #: Worst-case instructions per invocation (from the loop-free DAG
    #: bound, or from a loop certificate when one was proven).
    fuel_bound: Optional[int] = None
    #: Worst-case helper calls per invocation (same provenance).
    helper_bound: Optional[int] = None
    #: Loop-trip-count proof backing the bounds of a loopy program.
    fuel_certificate: Optional[FuelCertificate] = None
    #: pc -> "stack" | "heap" for individually proven memory accesses.
    mem_facts: MemFacts = field(default_factory=dict)
    #: Helper ids the program may call.
    helper_ids: Tuple[int, ...] = ()
    #: Every reachable ``CALL`` with the argument intervals reaching it,
    #: by pc: what the effect summaries (:mod:`.summaries`) are read from.
    call_sites: Tuple[CallSite, ...] = ()
    #: pcs of reachable instructions (empty when the CFG was not built).
    reachable: Tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics."""
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def add(self, rule: str, severity: Severity, message: str,
            pc: Optional[int] = None) -> None:
        self.diagnostics.append(Diagnostic(rule, severity, message, pc))

    def summary(self) -> Dict[str, object]:
        """Compact dict for events / CLI output."""
        return {
            "instructions": self.instruction_count,
            "errors": len(self.errors()),
            "warnings": len(self.warnings()),
            "memory_safe": self.memory_safe,
            "loop_free": self.loop_free,
            "fuel_bound": self.fuel_bound,
            "helper_bound": self.helper_bound,
            "fuel_certified": self.fuel_certificate is not None,
            "proven_accesses": len(self.mem_facts),
        }
