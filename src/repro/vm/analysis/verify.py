"""Static bytecode verification (§2.1) — the acceptance gate.

Before a pluglet is accepted, the PRE "checks simple properties of the
bytecode to ensure its (apparent) validity":

(i)   the bytecode contains an exit instruction;
(ii)  all instructions are valid (known opcodes and values);
(iii) no trivially wrong operations (e.g. dividing by zero);
(iv)  all jumps are valid;
(v)   the bytecode never writes to read-only registers;
plus static validation of stack accesses.

These checks live in the rule catalog (rules ``PRE001``–``PRE012``);
``verify()`` is the §2.1 acceptance gate and raises on the first
legacy-rule violation exactly as the old single-pass verifier did.  It
runs the analyzer in its shallow mode: the deeper rules (reachability,
abstract interpretation) stay deliberately *relaxed* here — loops are
allowed, unproven memory accesses are deferred to the runtime monitor —
matching the paper's acceptance policy.  Oversized programs are
rejected without materializing the whole input.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional

from ..isa import Instruction
from .report import AnalysisReport
from .rules import DEFAULT_MAX_INSTRUCTIONS, LEGACY_RULES, analyze


class VerificationError(Exception):
    """The bytecode failed static verification; the plugin is rejected.
    ``rule`` is the id of the analyzer rule that failed (``PRE001`` –
    ``PRE012``), or None for bytecode that never reached the analyzer."""

    rule: Optional[str] = None

    def __init__(self, reason: str, pc: Optional[int] = None):
        where = f" at instruction {pc}" if pc is not None else ""
        super().__init__(f"{reason}{where}")
        self.reason = reason
        self.pc = pc


def verify(program: Iterable[Instruction],
           max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> None:
    """Run the §2.1 static checks; raises :class:`VerificationError` on
    the first failure."""
    verify_report(analyze(program, max_instructions=max_instructions,
                          deep=False))


def verify_report(report: AnalysisReport) -> None:
    """The §2.1 verdict of an analyzer report, shallow or deep: raises
    :class:`VerificationError` on its first legacy-rule violation."""
    for diag in report.diagnostics:
        if diag.rule in LEGACY_RULES:
            exc = VerificationError(diag.message, diag.pc)
            exc.rule = diag.rule
            raise exc


def verify_bytecode(bytecode: bytes) -> List[Instruction]:
    """Decode then verify; returns the instruction list."""
    from ..isa import decode_program

    try:
        instructions = decode_program(bytecode)
    except (ValueError, struct.error) as exc:
        raise VerificationError(f"malformed bytecode: {exc}")
    verify(instructions)
    return instructions
