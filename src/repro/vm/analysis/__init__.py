"""Static analysis of PRE bytecode: CFG, abstract interpretation, rules.

The package upgrades the paper's "simple checks" (§2.1) to a real
dataflow analyzer.  :func:`analyze` builds a control-flow graph
(:mod:`.cfg`), runs a worklist abstract interpretation with an unsigned
interval domain (:mod:`.absint` / :mod:`.domain`), evaluates the rule
catalog (:mod:`.rules`) and returns an :class:`AnalysisReport` whose
proofs — ``memory_safe``, ``loop_free``, ``fuel_bound`` and per-access
region facts — let :mod:`repro.vm.jit` drop its inlined runtime monitor.
"""

from __future__ import annotations

from .absint import AbstractInterpretation, AbsState, CallSite, interpret
from .callgraph import ProtoopCallGraph, TriggerEdge, build_call_graph
from .cfg import BasicBlock, ControlFlowGraph, build_cfg
from .conflicts import check_conflicts, check_plugin_set
from .fuelbound import certify
from .manifest import analyze_plugin, lint_plugin
from .report import (
    AnalysisReport,
    Diagnostic,
    FuelCertificate,
    LoopBound,
    Severity,
)
from .rules import (
    DEFAULT_HEAP_SIZE,
    DEFAULT_MAX_INSTRUCTIONS,
    LEGACY_RULES,
    RULES,
    analyze,
    deepen,
)
from .summaries import (
    EffectSummary,
    HelperEffect,
    PluginEffects,
    summarize_calls,
    summarize_plugin,
    summarize_pluglet,
)
from .verify import VerificationError, verify, verify_bytecode, verify_report

__all__ = [
    "AbsState",
    "AbstractInterpretation",
    "AnalysisReport",
    "BasicBlock",
    "CallSite",
    "ControlFlowGraph",
    "DEFAULT_HEAP_SIZE",
    "DEFAULT_MAX_INSTRUCTIONS",
    "Diagnostic",
    "EffectSummary",
    "FuelCertificate",
    "HelperEffect",
    "LEGACY_RULES",
    "LoopBound",
    "PluginEffects",
    "ProtoopCallGraph",
    "RULES",
    "Severity",
    "TriggerEdge",
    "VerificationError",
    "analyze",
    "analyze_plugin",
    "build_call_graph",
    "build_cfg",
    "certify",
    "check_conflicts",
    "check_plugin_set",
    "deepen",
    "interpret",
    "lint_plugin",
    "summarize_calls",
    "summarize_plugin",
    "summarize_pluglet",
    "verify",
    "verify_bytecode",
    "verify_report",
]
