"""A termination checker for pluglet bytecode (§5).

The paper validates pluglets with the T2 prover: "This procedure builds on
the seminal works on transition invariants [...] to build a proof of
termination, or to disprove it", assuming "the termination of external
functions".  This module implements the same *kind* of analysis at the
scale our pluglets need:

* a pluglet whose CFG has no back edge terminates trivially (helpers are
  assumed terminating, as T2 assumes for external functions);
* for each natural loop, we search for a **ranking function**: a counter
  variable (register or stack slot) that every path around the loop moves
  monotonically toward a loop-invariant bound tested by the loop's exit
  condition, by a step that cannot jump over the exit set on 64-bit
  words (see :func:`_reaches_exit`);
* anything else is reported *not proven* — exactly how the paper reports
  pluglets T2 could not handle (Table 2's "Proven terminating" column).

The symbolic core is a tiny linear abstract interpretation: values are
``const c``, ``var v + delta`` (v an initial register/slot value) or
``unknown``.

A proven :class:`LoopReport` carries the ranking *data* (counter key,
per-lap delta, stay condition and bound operand), not just prose: the
fuel certifier (:mod:`.fuelbound`) combines it with the interval
analysis to bound the loop's trip count statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..isa import (
    DST_WRITE_OPS,
    FP_REGISTER,
    JMP_IMM_OPS,
    JMP_REG_OPS,
    SEMANTICS,
    WORD_MASK,
    Instruction,
    Op,
    to_signed,
)
from .cfg import ControlFlowGraph

MAX_PATHS = 256

# Symbolic values.
CONST = "const"
VAR = "var"
UNKNOWN = "unknown"

#: A symbolic value: ``(CONST, value, 0)``, ``(VAR, key, delta)`` with
#: key ``("r", reg)`` or ``("s", fp_offset)``, or :data:`_UNKNOWN`.
Sym = Tuple[str, Any, int]
#: A counter identity: ``("r", reg)`` or ``("s", fp_offset)``.
VarKey = Tuple[str, int]


def _const(c: int) -> Sym:
    return (CONST, c & WORD_MASK, 0)


def _var(key: VarKey, delta: int = 0) -> Sym:
    return (VAR, key, delta)


_UNKNOWN: Sym = (UNKNOWN, None, 0)


@dataclass
class LoopReport:
    head: int
    proven: bool
    ranking: Optional[str] = None
    reason: str = ""
    #: Machine-readable ranking (proven loops only): the counter's
    #: symbolic value at the test, its per-lap delta, the comparison
    #: under which execution *stays* in the loop, the loop-invariant
    #: bound operand, and the block whose terminator tests it.
    counter: Optional[Sym] = None
    delta: Optional[int] = None
    stay_op: Optional[Op] = None
    bound: Optional[Sym] = None
    cond_block: Optional[int] = None


@dataclass
class TerminationReport:
    """Outcome for one pluglet."""

    proven: bool
    loops: List[LoopReport] = field(default_factory=list)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.proven


class _State:
    """Symbolic machine state along one loop path."""

    def __init__(self) -> None:
        # Initial symbolic values: registers hold var('r', i); slots are
        # materialized lazily as var('s', off).
        self.regs: Dict[int, Sym] = {i: _var(("r", i)) for i in range(11)}
        self.slots: Dict[int, Sym] = {}

    def slot(self, off: int) -> Sym:
        if off not in self.slots:
            self.slots[off] = _var(("s", off))
        return self.slots[off]


def _step(state: _State, ins: Instruction) -> None:
    op = ins.opcode
    regs = state.regs
    if op is Op.MOV_IMM or op is Op.LDDW:
        regs[ins.dst] = _const(ins.imm)
    elif op is Op.MOV:
        regs[ins.dst] = regs[ins.src]
    elif op is Op.ADD_IMM:
        regs[ins.dst] = _add(regs[ins.dst], ins.imm)
    elif op is Op.SUB_IMM:
        regs[ins.dst] = _add(regs[ins.dst], -ins.imm)
    elif op is Op.ADD:
        regs[ins.dst] = _add_sym(regs[ins.dst], regs[ins.src], 1)
    elif op is Op.SUB:
        regs[ins.dst] = _add_sym(regs[ins.dst], regs[ins.src], -1)
    elif op is Op.LDXDW and ins.src == FP_REGISTER:
        regs[ins.dst] = state.slot(ins.offset)
    elif op is Op.STXDW and ins.dst == FP_REGISTER:
        state.slots[ins.offset] = regs[ins.src]
    elif op is Op.CALL:
        regs[0] = _UNKNOWN
    elif op in DST_WRITE_OPS:
        # Other loads and any other ALU op destroy linearity; jumps and
        # stores outside the slots leave the counters alone.
        regs[ins.dst] = _UNKNOWN


def _add(value: Sym, c: int) -> Sym:
    kind, key, delta = value
    if kind == CONST:
        return _const(key + c)
    if kind == VAR:
        return (VAR, key, delta + c)
    return _UNKNOWN


def _add_sym(a: Sym, b: Sym, sign: int) -> Sym:
    if b[0] == CONST:
        return _add(a, sign * to_signed(b[1]))
    if a[0] == CONST and b[0] == VAR and sign == 1:
        return (VAR, b[1], b[2] + to_signed(a[1]))
    return _UNKNOWN


#: Stay comparisons a rising counter leaves; the others need it falling.
_RISING = (Op.JLT, Op.JLE, Op.JSLT)
#: Stay comparisons whose exit set is never empty, whatever the bound.
_STRICT = (Op.JLT, Op.JGT, Op.JSLT, Op.JSGT)
#: How many words leave ``stay while x <op> b``, as a function of ``b``.
_EXIT_SIZE: Dict[Op, Callable[[int], int]] = {
    Op.JLT: lambda b: (1 << 64) - b,
    Op.JLE: lambda b: WORD_MASK - b,
    Op.JSLT: lambda b: (1 << 63) - to_signed(b),
    Op.JGT: lambda b: b + 1,
    Op.JGE: lambda b: b,
    Op.JSGT: lambda b: to_signed(b) + (1 << 63) + 1,
}


def check_termination(
        program: Union[ControlFlowGraph, Sequence[Instruction]],
) -> TerminationReport:
    """Try to prove that a pluglet terminates on every input.  ``program``
    is its instructions or, when the caller has built it, its CFG."""
    cfg = program if isinstance(program, ControlFlowGraph) \
        else ControlFlowGraph(program)
    back = cfg.back_edges
    if not back:
        return TerminationReport(proven=True, reason="loop-free")
    reports = []
    all_proven = True
    for tail, head in back:
        loop_blocks = cfg.natural_loop(tail, head)
        report = _check_loop(cfg, head, loop_blocks, back)
        reports.append(report)
        all_proven &= report.proven
    return TerminationReport(
        proven=all_proven,
        loops=reports,
        reason="all loops have ranking functions" if all_proven
        else "some loop lacks a provable ranking function",
    )


@dataclass(frozen=True)
class _Ranking:
    text: str
    counter: Sym
    delta: int
    stay_op: Op
    bound: Sym


def _check_loop(cfg: ControlFlowGraph, head: int,
                loop_blocks: FrozenSet[int],
                all_back_edges: List[Tuple[int, int]]) -> LoopReport:
    # Variables written inside *nested* loops are unusable for this loop:
    # the simple cycle paths below pass through the inner body once, so
    # its per-lap effect on them is not linear.
    nested_tainted: Set[VarKey] = set()
    for tail2, head2 in all_back_edges:
        if head2 == head:
            continue
        inner = cfg.natural_loop(tail2, head2)
        if inner < loop_blocks:
            for _pc, ins in cfg.loop_instructions(inner):
                if ins.opcode is Op.STXDW and ins.dst == FP_REGISTER:
                    nested_tainted.add(("s", ins.offset))
                if ins.opcode in DST_WRITE_OPS:
                    nested_tainted.add(("r", ins.dst))
                if ins.opcode is Op.CALL:
                    nested_tainted.add(("r", 0))

    paths = cycle_paths(cfg, head, loop_blocks)
    if paths is None:
        return LoopReport(head=head, proven=False,
                          reason="too many paths through loop")
    exit_conditions = _exit_conditions(cfg, loop_blocks)
    if not exit_conditions:
        return LoopReport(head=head, proven=False, reason="no exit branch")

    # A candidate ranking variable must be moved monotonically by every
    # cycle path; compute per-path deltas for all written slots and
    # registers (None = rewritten non-linearly).
    candidate_deltas: Optional[Dict[VarKey, Optional[int]]] = None
    for path in paths:
        state = _State()
        for block_start in path:
            block = cfg.blocks[block_start]
            for pc in range(block.start, block.end):
                _step(state, cfg.instructions[pc])
        deltas: Dict[VarKey, Optional[int]] = {}
        for off, value in state.slots.items():
            skey: VarKey = ("s", off)
            deltas[skey] = value[2] if value[0] == VAR and value[1] == skey \
                else None
        for reg, value in state.regs.items():
            rkey: VarKey = ("r", reg)
            deltas[rkey] = value[2] if value[0] == VAR and value[1] == rkey \
                else None
        if candidate_deltas is None:
            candidate_deltas = deltas
        else:
            merged: Dict[VarKey, Optional[int]] = {}
            for key in set(candidate_deltas) | set(deltas):
                a = candidate_deltas.get(key, 0)
                b = deltas.get(key, 0)
                merged[key] = a if a == b else None
            candidate_deltas = merged
    final_deltas: Dict[VarKey, Optional[int]] = candidate_deltas or {}

    # Prefer the head's own condition: it is tested on every lap, which
    # is what the fuel certifier needs to turn the ranking into a trip
    # bound (conditions deeper in the body still prove termination).
    ordered = sorted(exit_conditions, key=lambda c: c[3] != head)
    for cond_op, left, right, block_start in ordered:
        ranking = _match_ranking(cond_op, left, right, final_deltas,
                                 nested_tainted)
        if ranking is not None:
            return LoopReport(head=head, proven=True, ranking=ranking.text,
                              counter=ranking.counter, delta=ranking.delta,
                              stay_op=ranking.stay_op, bound=ranking.bound,
                              cond_block=block_start)
    return LoopReport(
        head=head, proven=False,
        reason="no exit condition over a monotonic counter with an "
               "invariant bound",
    )


def _match_ranking(cond_op: Op, left: Sym, right: Sym,
                   deltas: Dict[VarKey, Optional[int]],
                   tainted: Set[VarKey]) -> Optional[_Ranking]:
    """Does `stay while left <op> right` terminate given the deltas?"""
    def invariant(value: Sym) -> bool:
        if value[0] == CONST:
            return True
        if value[0] == VAR and value[2] == 0:
            key = value[1]
            if key in tainted:
                return False
            return deltas.get(key, 0) == 0
        return False

    for a, b, op in ((left, right, cond_op),
                     (right, left, SEMANTICS[cond_op].swap)):
        if op is None:
            continue
        if a[0] != VAR:
            continue
        key = a[1]
        if key in tainted:
            continue
        delta = deltas.get(key)
        if delta is None or delta == 0:
            continue
        if not invariant(b):
            continue
        if op is Op.JNE and abs(delta) == 1 and b[0] == CONST:
            return _Ranking(f"{key} steps by {delta} to exact bound",
                            a, delta, op, b)
        if op not in _EXIT_SIZE or (op in _RISING) != (delta > 0) \
                or not _reaches_exit(op, delta, b):
            continue
        trend = "increases" if delta > 0 else "decreases"
        return _Ranking(f"{key} {trend} by {delta} toward bound",
                        a, delta, op, b)
    return None


def _reaches_exit(stay_op: Op, delta: int, bound: Sym) -> bool:
    """Must a counter moving by ``delta`` per lap, modulo 2^64, land in
    the exit set of ``stay while counter <stay_op> bound``?

    An odd step visits every word, so any non-empty exit set will do —
    a strict comparison's always is.  An even step can jump over the
    exit set and wrap around, so it needs a constant bound whose exit
    set is at least one step wide."""
    if bound[0] == CONST:
        size = _EXIT_SIZE[stay_op](bound[1])
    else:  # the smallest exit set over every bound
        size = 1 if stay_op in _STRICT else 0
    return size >= (1 if delta % 2 else abs(delta))


def _exit_conditions(
        cfg: ControlFlowGraph,
        loop_blocks: FrozenSet[int]) -> List[Tuple[Op, Sym, Sym, int]]:
    """Symbolic ``(op, left, right, block)`` conditions under which the
    loop *stays*.

    For each exiting conditional branch we re-execute the block to get the
    symbolic operands at the branch."""
    out: List[Tuple[Op, Sym, Sym, int]] = []
    for start in loop_blocks:
        block = cfg.blocks[start]
        exits = [s for s in block.successors if s not in loop_blocks]
        if not exits:
            continue
        last = cfg.instructions[block.end - 1]
        if last.opcode not in JMP_REG_OPS and last.opcode not in JMP_IMM_OPS:
            continue  # unconditional exit: fine, but gives no condition
        state = _State()
        for pc in range(block.start, block.end - 1):
            _step(state, cfg.instructions[pc])
        row = SEMANTICS[last.opcode]
        left = state.regs[last.dst]
        right = _const(last.imm) if last.opcode is row.imm \
            else state.regs[last.src]
        taken = block.end + last.offset
        # Taking the jump leaves the loop: it stays while the jump's
        # exact negation holds, and a jump with none gives no condition.
        stay_op = row.negation if taken in exits else row.reg
        if stay_op is not None:
            out.append((stay_op, left, right, start))
    return out


def cycle_paths(cfg: ControlFlowGraph, head: int,
                loop_blocks: FrozenSet[int]) -> Optional[List[List[int]]]:
    """All simple paths from head back to head inside the loop, or
    ``None`` when there are more than :data:`MAX_PATHS`."""
    paths: List[List[int]] = []

    def walk(node: int, path: List[int]) -> bool:
        if len(paths) > MAX_PATHS:
            return False
        for succ in cfg.blocks[node].successors:
            if succ == head:
                paths.append(list(path))
            elif succ in loop_blocks and succ not in path:
                path.append(succ)
                if not walk(succ, path):
                    return False
                path.pop()
        return True

    if not walk(head, [head]):
        return None
    return paths
