"""Static fuel certificates for loopy pluglets.

Loop-free programs get an exact worst-case fuel bound from the CFG's
longest path (:meth:`.cfg.ControlFlowGraph.longest_path`).  This module
extends the proof to programs *with* loops by combining two existing
analyses:

* the termination checker's ranking functions
  (:mod:`.termination`) give, per natural loop, a counter
  that every lap moves by a constant delta toward a loop-invariant
  bound tested at the loop head;
* the interval abstract interpretation (:mod:`.absint`) gives the
  counter's and the bound's value ranges at the loop pre-header.

Together they bound the loop's trip count, so total fuel is the acyclic
longest path (back edges removed) plus each loop's trips x worst-case
lap cost.  The resulting :class:`~.report.FuelCertificate` populates
``AnalysisReport.fuel_bound`` / ``helper_bound``, which lets the JIT
(:mod:`repro.vm.jit`) elide its batched fuel checks exactly as it
already does for loop-free pluglets — a performance change only, never
a semantic one (fuel accounting is still updated).

The certifier is deliberately conservative.  It refuses (returns
``None``) whenever soundness would need assumptions the analyses cannot
discharge: nested or overlapping loops, multiple back edges per head,
exit conditions away from the loop head (not tested every lap), signed
comparisons, possible counter wraparound, stack-slot counters in bodies
whose helpers or stores could alias the slot, and trip counts beyond
:data:`MAX_TRIPS` (a budget that large would never fit a manifest
anyway).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .. import domain
from ..domain import Interval
from ..isa import (
    FP_REGISTER,
    LOAD_OPS,
    MEM_OPS,
    MEM_SIZES,
    STACK_SIZE,
    Op,
)
from .absint import AbsState, AbstractInterpretation
from .cfg import ControlFlowGraph
from .report import FuelCertificate, LoopBound
from .termination import LoopReport, check_termination, cycle_paths

_WORD = (1 << 64) - 1

#: Refuse certificates above this many laps: such a bound could never
#: fit a per-invocation fuel budget, and keeping trip counts small makes
#: the arithmetic trivially overflow-free.
MAX_TRIPS = 1 << 20


def certify(cfg: ControlFlowGraph, absint: AbstractInterpretation,
            ) -> Optional[FuelCertificate]:
    """Prove a worst-case fuel/helper bound for a loopy program, or
    return ``None`` when no sound certificate exists."""
    if cfg.loop_free or not cfg.blocks:
        return None
    back = cfg.back_edges
    heads = [head for _tail, head in back]
    if len(set(heads)) != len(heads):
        return None  # multiple back edges per head: lap delta ambiguous

    bodies: Dict[int, FrozenSet[int]] = {}
    for tail, head in back:
        bodies[head] = cfg.natural_loop(tail, head)
    body_list = list(bodies.values())
    for i, a in enumerate(body_list):
        for b in body_list[i + 1:]:
            if a & b:
                return None  # nested or overlapping loops

    term = check_termination(cfg)
    if not term.proven:
        return None
    by_head: Dict[int, LoopReport] = {rep.head: rep for rep in term.loops}

    fuel = cfg.longest_path(lambda b: cfg.blocks[b].size)
    helpers = cfg.longest_path(cfg.call_count)

    loop_bounds: List[LoopBound] = []
    for head, body in sorted(bodies.items()):
        rep = by_head.get(head)
        if rep is None or not rep.proven or rep.cond_block != head:
            return None
        if rep.counter is None or rep.bound is None or rep.delta is None \
                or rep.stay_op is None:
            return None
        if not _counter_safe(cfg, absint, body, rep.counter):
            return None
        pre = _preheader_state(cfg, absint, head, body)
        if pre is None:
            return None
        counter_iv = _sym_interval(rep.counter, pre)
        bound_iv = _sym_interval(rep.bound, pre)
        if counter_iv is None or bound_iv is None:
            return None
        trips = _trip_bound(rep.stay_op, counter_iv, rep.delta, bound_iv)
        if trips is None or trips > MAX_TRIPS:
            return None
        paths = cycle_paths(cfg, head, body)
        if not paths:
            return None
        lap_fuel = max(sum(cfg.blocks[b].size for b in path)
                       for path in paths)
        lap_calls = max(sum(cfg.call_count(b) for b in path)
                        for path in paths)
        fuel += trips * lap_fuel
        helpers += trips * lap_calls
        loop_bounds.append(LoopBound(head=head, trips=trips,
                                     ranking=rep.ranking or ""))

    return FuelCertificate(fuel_bound=fuel, helper_bound=helpers,
                           loops=tuple(loop_bounds))


# --- structural pieces --------------------------------------------------


def _preheader_state(cfg: ControlFlowGraph, absint: AbstractInterpretation,
                     head: int, body: FrozenSet[int]) -> Optional[AbsState]:
    """Join of the abstract states entering ``head`` from *outside* the
    loop — the widened fixpoint state at the head itself mixes in the
    loop's own iterations, which would destroy the initial-value
    intervals the trip bound needs."""
    states: List[AbsState] = []
    if head == cfg.entry:
        states.append(AbsState())
    for pred, block in cfg.blocks.items():
        if pred in body or head not in block.successors:
            continue
        exit_state = absint.block_exit_state(pred)
        if exit_state is None:
            continue  # unreachable predecessor: contributes nothing
        states.append(exit_state)
    if not states:
        return None
    joined = states[0]
    for other in states[1:]:
        joined.join_from(other, widen=False)
    return joined


def _sym_interval(sym: Tuple, state: AbsState) -> Optional[Interval]:
    """Concretize a termination-checker symbolic value against an
    abstract state (slot keys are FP-relative; absint slots are 0-based
    from STACK_BASE)."""
    kind, key, delta = sym
    if kind == "const":
        iv = domain.const(int(key))
    elif kind == "var":
        space, index = key
        if space == "r":
            iv = state.regs[index]
        else:
            iv = state.slots.get(STACK_SIZE + index, domain.TOP)
    else:
        return None
    if delta:
        iv = domain.add_const(iv, delta)
    return iv


def _counter_safe(cfg: ControlFlowGraph, absint: AbstractInterpretation,
                  body: FrozenSet[int], counter: Tuple) -> bool:
    """Registers are written only by tracked instructions, so register
    counters are always safe.  A stack-slot counter can additionally be
    clobbered by (a) helpers, which may write the running stack, or
    (b) stores the termination checker does not model; accept the slot
    only when the body provably contains neither."""
    if counter[0] != "var" or counter[1][0] == "r":
        return True
    fp_off = counter[1][1]
    for pc, ins in cfg.loop_instructions(body):
        op = ins.opcode
        if op is Op.CALL:
            return False
        if op not in MEM_OPS or op in LOAD_OPS:
            continue
        size = MEM_SIZES[op]
        if ins.dst == FP_REGISTER:
            overlaps = ins.offset < fp_off + 8 and fp_off < ins.offset + size
            if overlaps and not (op is Op.STXDW and ins.offset == fp_off):
                return False  # untracked write over the counter slot
            continue
        res = absint.pc_results.get(pc)
        if res is None or res.region != "heap":
            return False  # store that may land in the stack
    return True


# --- trip-count arithmetic ----------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _trip_bound(stay_op: Op, counter: Interval, delta: int,
                bound: Interval) -> Optional[int]:
    """Worst-case laps of ``stay while counter <op> bound`` where the
    counter moves by ``delta`` per lap (unsigned 64-bit semantics); the
    guards reject any run that could wrap around 2^64."""
    c_lo, c_hi = counter
    b_lo, b_hi = bound
    if stay_op is Op.JLT and delta > 0:
        if b_hi - 1 + delta > _WORD:
            return None
        return _ceil_div(b_hi - c_lo, delta) if b_hi > c_lo else 0
    if stay_op is Op.JLE and delta > 0:
        if b_hi + delta > _WORD:
            return None
        return (b_hi - c_lo) // delta + 1 if b_hi >= c_lo else 0
    if stay_op is Op.JGT and delta < 0:
        step = -delta
        if b_lo < step - 1:
            return None
        return _ceil_div(c_hi - b_lo, step) if c_hi > b_lo else 0
    if stay_op is Op.JGE and delta < 0:
        step = -delta
        if b_lo < step:
            return None
        return (c_hi - b_lo) // step + 1 if c_hi >= b_lo else 0
    if stay_op is Op.JNE and delta == 1:
        if b_lo != b_hi or c_hi > b_lo:
            return None
        return b_lo - c_lo
    if stay_op is Op.JNE and delta == -1:
        if b_lo != b_hi or c_lo < b_lo:
            return None
        return c_hi - b_lo
    return None  # signed comparisons and exotic deltas: not certified
