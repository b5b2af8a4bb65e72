"""The analyzer's rule catalog and the :func:`analyze` entry point.

Rules ``PRE001``–``PRE012`` are the legacy §2.1 acceptance checks —
:func:`repro.vm.analysis.verify.verify` is a thin wrapper that raises on
the first of these.  Rules ``PRE1xx`` come from
the control-flow graph and the abstract interpretation; they localize
faults that previously only surfaced at run time.

========  ========  =====================================================
rule      severity  meaning
========  ========  =====================================================
PRE000    error     malformed input (undecodable / unassemblable)
PRE001    error     empty program
PRE002    error     program exceeds the instruction limit
PRE003    error     no exit instruction
PRE004    error     unknown opcode
PRE005    error     invalid destination register
PRE006    error     invalid source register
PRE007    error     division by zero immediate
PRE008    error     shift amount out of range
PRE009    error     jump target out of range
PRE010    error     write to the read-only frame pointer r10
PRE011    error     invalid (negative) helper id
PRE012    error     frame-pointer access outside the 512-byte stack
PRE101    warning   unreachable code
PRE102    error     exit instructions exist but none is reachable
PRE103    error     infinite loop: a reachable region cannot terminate
PRE104    error     memory access always outside stack and plugin memory
PRE106    error     read of a register never written on some path
PRE107    warning   load from stack bytes not definitely initialized
PRE108    error     divisor register is provably always zero
PRE109    warning   execution can run past the end of the program
========  ========  =====================================================

(Manifest-level rules ``PRE110``–``PRE113`` live in :mod:`.manifest`;
the inter-plugin conflict rules ``PRE200``–``PRE204`` live in
:mod:`.conflicts`.)
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..isa import (
    DST_WRITE_OPS,
    FP_REGISTER,
    JUMP_OPS,
    LOAD_OPS,
    MEM_OPS,
    MEM_SIZES,
    NUM_REGISTERS,
    STACK_SIZE,
    Instruction,
    Op,
)
from .absint import AbstractInterpretation
from .cfg import ControlFlowGraph
from .fuelbound import certify
from .report import AnalysisReport, Severity

#: Default heap size assumed for memory proofs; matches
#: :class:`repro.vm.interpreter.PluginMemory`.  A proof computed for
#: heap size H is valid on any plugin memory of size >= H.
DEFAULT_HEAP_SIZE = 16 * 1024

DEFAULT_MAX_INSTRUCTIONS = 65_536

#: rule id -> (title, severity)
RULES: Dict[str, Tuple[str, Severity]] = {
    "PRE000": ("malformed input", Severity.ERROR),
    "PRE001": ("empty program", Severity.ERROR),
    "PRE002": ("program too large", Severity.ERROR),
    "PRE003": ("missing exit instruction", Severity.ERROR),
    "PRE004": ("unknown opcode", Severity.ERROR),
    "PRE005": ("invalid destination register", Severity.ERROR),
    "PRE006": ("invalid source register", Severity.ERROR),
    "PRE007": ("division by zero immediate", Severity.ERROR),
    "PRE008": ("shift amount out of range", Severity.ERROR),
    "PRE009": ("jump target out of range", Severity.ERROR),
    "PRE010": ("write to read-only register", Severity.ERROR),
    "PRE011": ("invalid helper id", Severity.ERROR),
    "PRE012": ("stack access out of bounds", Severity.ERROR),
    "PRE101": ("unreachable code", Severity.WARNING),
    "PRE102": ("unreachable exit", Severity.ERROR),
    "PRE103": ("infinite loop", Severity.ERROR),
    "PRE104": ("out-of-bounds memory access", Severity.ERROR),
    "PRE106": ("uninitialized register read", Severity.ERROR),
    "PRE107": ("uninitialized stack read", Severity.WARNING),
    "PRE108": ("division by zero register", Severity.ERROR),
    "PRE109": ("execution past end of program", Severity.WARNING),
    "PRE110": ("fuel budget below analyzer bound", Severity.WARNING),
    "PRE111": ("unknown protocol operation", Severity.WARNING),
    "PRE112": ("unknown anchor", Severity.ERROR),
    "PRE113": ("unknown helper id", Severity.WARNING),
    "PRE200": ("cross-plugin replace collision", Severity.ERROR),
    "PRE201": ("cross-plugin write-write hazard", Severity.WARNING),
    "PRE202": ("order-sensitive cross-plugin access", Severity.WARNING),
    "PRE203": ("cross-plugin trigger cycle", Severity.ERROR),
    "PRE204": ("undeclared protoop trigger", Severity.WARNING),
}

#: The §2.1 checks: ``verify()`` raises on the first of these, in the
#: exact order the old single-pass verifier discovered them.
LEGACY_RULES = frozenset(f"PRE{i:03d}" for i in range(1, 13))


def analyze(
    program: Iterable[Instruction],
    heap_size: int = DEFAULT_HEAP_SIZE,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    deep: bool = True,
) -> AnalysisReport:
    """Run the full static analysis; returns a report, never raises.

    ``deep=False`` restricts to the legacy rule set (the fast path used
    by the ``verify()`` compatibility wrapper); :func:`deepen` completes
    such a report later without evaluating those rules again.
    """
    report = AnalysisReport(heap_size=heap_size)
    instructions = _materialize(program, max_instructions, report)
    report.instruction_count = len(instructions)
    if instructions and report.ok:
        _legacy_rules(instructions, report)
    if deep:
        _deep_passes(instructions, report)
    return report


def deepen(report: AnalysisReport,
           program: Sequence[Instruction]) -> AnalysisReport:
    """Extend a shallow report — ``analyze(program, deep=False)`` — in
    place with the CFG rules, the abstract interpretation and the facts,
    giving exactly the report ``analyze(program)`` would.  ``program``
    must be the one the shallow report was made from, and a report must
    be deepened at most once."""
    _deep_passes(list(program), report)
    return report


def _deep_passes(instructions: List[Instruction],
                 report: AnalysisReport) -> None:
    if not instructions or _structurally_broken(report):
        return
    if not all(isinstance(ins.opcode, Op) for ins in instructions):
        return
    cfg = ControlFlowGraph(instructions)
    _cfg_rules(cfg, instructions, report)
    absint = AbstractInterpretation(cfg, report.heap_size)
    _absint_rules(cfg, absint, instructions, report)
    _facts(cfg, absint, instructions, report)


# --- materialization (the lazy empty/size fix) -------------------------


def _materialize(program: Iterable[Instruction], max_instructions: int,
                 report: AnalysisReport) -> List[Instruction]:
    """Pull at most ``max_instructions + 1`` items before judging size,
    so an oversized (or unbounded) iterable is rejected without being
    fully materialized."""
    known_len: Optional[int] = None
    if isinstance(program, Sequence):
        known_len = len(program)
    instructions = list(itertools.islice(iter(program), max_instructions + 1))
    if not instructions:
        report.add("PRE001", Severity.ERROR, "empty program")
        return instructions
    if len(instructions) > max_instructions:
        shown = (f"{known_len} > {max_instructions}" if known_len is not None
                 else f"> {max_instructions}")
        report.add("PRE002", Severity.ERROR, f"program too large ({shown})")
        return instructions[:max_instructions]
    return instructions


# --- legacy §2.1 checks -------------------------------------------------


def _legacy_rules(instructions: List[Instruction],
                  report: AnalysisReport) -> None:
    if not any(ins.opcode is Op.EXIT for ins in instructions):
        report.add("PRE003", Severity.ERROR, "program has no exit instruction")

    n = len(instructions)
    for pc, ins in enumerate(instructions):
        op = ins.opcode
        if not isinstance(op, Op):
            try:
                op = Op(op)
            except ValueError:
                report.add("PRE004", Severity.ERROR,
                           f"unknown opcode {ins.opcode!r}", pc)
                continue
        if not 0 <= ins.dst < NUM_REGISTERS:
            report.add("PRE005", Severity.ERROR,
                       f"invalid dst register r{ins.dst}", pc)
        if not 0 <= ins.src < NUM_REGISTERS:
            report.add("PRE006", Severity.ERROR,
                       f"invalid src register r{ins.src}", pc)
        if op in (Op.DIV_IMM, Op.MOD_IMM) and ins.imm == 0:
            report.add("PRE007", Severity.ERROR,
                       "division by zero immediate", pc)
        if op in (Op.LSH_IMM, Op.RSH_IMM, Op.ARSH_IMM) \
                and not 0 <= ins.imm < 64:
            report.add("PRE008", Severity.ERROR,
                       f"shift amount {ins.imm} out of range", pc)
        if op in JUMP_OPS:
            target = pc + 1 + ins.offset
            if not 0 <= target < n:
                report.add("PRE009", Severity.ERROR,
                           f"jump target {target} out of range", pc)
        if op in DST_WRITE_OPS and ins.dst == FP_REGISTER:
            report.add("PRE010", Severity.ERROR,
                       "write to read-only register r10", pc)
        if op is Op.CALL and ins.imm < 0:
            report.add("PRE011", Severity.ERROR,
                       f"invalid helper id {ins.imm}", pc)

    for pc, ins in enumerate(instructions):
        if ins.opcode not in MEM_OPS:
            continue
        size = MEM_SIZES[ins.opcode]
        base = ins.src if ins.opcode in LOAD_OPS else ins.dst
        if base != FP_REGISTER:
            continue
        low = ins.offset
        high = ins.offset + size
        if not (-STACK_SIZE <= low and high <= 0):
            report.add(
                "PRE012", Severity.ERROR,
                f"stack access [{low}, {high}) outside [-{STACK_SIZE}, 0)",
                pc)


def _structurally_broken(report: AnalysisReport) -> bool:
    """Errors after which instruction semantics are undefined, so the
    deep passes would analyze garbage."""
    return any(d.rule in ("PRE002", "PRE004", "PRE005", "PRE006")
               for d in report.diagnostics)


# --- CFG rules ----------------------------------------------------------


def _cfg_rules(cfg: ControlFlowGraph, instructions: List[Instruction],
               report: AnalysisReport) -> None:
    n = len(instructions)
    for start in cfg.unreachable_blocks():
        report.add("PRE101", Severity.WARNING,
                   "unreachable code (never executed)", start)

    reachable = cfg.reachable_blocks
    exit_reachable = any(
        instructions[cfg.blocks[b].end - 1].opcode is Op.EXIT
        for b in reachable)
    has_exit = any(ins.opcode is Op.EXIT for ins in instructions)
    if has_exit and not exit_reachable:
        report.add("PRE102", Severity.ERROR,
                   "exit instructions exist but none is reachable "
                   "from the entry", 0)

    can_stop = cfg.can_terminate_from()
    stuck = sorted(b for b in reachable if b not in can_stop)
    if stuck:
        report.add("PRE103", Severity.ERROR,
                   "infinite loop: execution reaching this instruction "
                   "can never terminate", stuck[0])

    for start in sorted(cfg.fall_off & reachable):
        last = instructions[cfg.blocks[start].end - 1]
        if cfg.blocks[start].end == n and last.opcode is not Op.JA \
                and last.opcode is not Op.EXIT:
            report.add("PRE109", Severity.WARNING,
                       "execution can run past the end of the program",
                       cfg.blocks[start].end - 1)


# --- abstract-interpretation rules -------------------------------------


def _absint_rules(cfg: ControlFlowGraph, absint: AbstractInterpretation,
                  instructions: List[Instruction],
                  report: AnalysisReport) -> None:
    for pc in sorted(absint.pc_results):
        res = absint.pc_results[pc]
        ins = instructions[pc]
        if res.definite_oob:
            size = MEM_SIZES[ins.opcode]
            report.add("PRE104", Severity.ERROR,
                       f"memory access of {size} bytes always outside "
                       f"pluglet stack and plugin memory", pc)
        for reg in sorted(res.uninit_regs):
            report.add("PRE106", Severity.ERROR,
                       f"read of register r{reg} which is never written "
                       f"on some path", pc)
        if res.uninit_stack:
            report.add("PRE107", Severity.WARNING,
                       "load from stack bytes not definitely "
                       "initialized", pc)
        if res.definite_div_zero:
            report.add("PRE108", Severity.ERROR,
                       "division by zero (divisor register is always "
                       "zero)", pc)


# --- facts --------------------------------------------------------------


def _facts(cfg: ControlFlowGraph, absint: AbstractInterpretation,
           instructions: List[Instruction], report: AnalysisReport) -> None:
    report.loop_free = cfg.loop_free
    report.reachable = tuple(cfg.reachable_pcs())
    report.helper_ids = tuple(sorted(absint.helper_ids))
    report.call_sites = tuple(absint.call_sites[pc]
                              for pc in sorted(absint.call_sites))

    mem_facts: Dict[int, str] = {}
    all_proven = True
    for pc in report.reachable:
        if instructions[pc].opcode not in MEM_OPS:
            continue
        res = absint.pc_results.get(pc)
        region = res.region if res is not None else None
        if region is None:
            all_proven = False
        else:
            mem_facts[pc] = region
    report.mem_facts = mem_facts
    report.memory_safe = all_proven

    if cfg.loop_free:
        report.fuel_bound = cfg.longest_path(lambda b: cfg.blocks[b].size)
        report.helper_bound = cfg.longest_path(cfg.call_count)
    elif report.ok:
        # Loopy programs can still get a static bound when every loop's
        # trip count is certified (termination ranking + intervals).
        certificate = certify(cfg, absint)
        if certificate is not None:
            report.fuel_certificate = certificate
            report.fuel_bound = certificate.fuel_bound
            report.helper_bound = certificate.helper_bound

