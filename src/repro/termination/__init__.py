"""Termination checking of pluglet bytecode (the paper's T2 validation)."""

from repro.vm.analysis.cfg import BasicBlock, ControlFlowGraph
from .checker import LoopReport, TerminationReport, check_termination

__all__ = [
    "BasicBlock",
    "ControlFlowGraph",
    "LoopReport",
    "TerminationReport",
    "check_termination",
]
