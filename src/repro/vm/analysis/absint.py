"""Worklist abstract interpretation over the PRE control-flow graph.

The analysis joins, per basic block, an :class:`AbsState` tracking

* one value interval per register (:mod:`repro.vm.domain`, through the
  ``interval`` column of :data:`repro.vm.isa.SEMANTICS`);
* which registers have definitely been written (for the
  uninitialized-read lint — the interpreter zero-fills registers, so
  this is a code-smell rule, not a soundness one);
* which stack bytes have definitely been written, and the abstract
  values of frame-pointer-relative 8-byte slots (the compiler's spill
  slots), so address arithmetic routed through the stack stays precise.

States propagate along CFG edges until a fixpoint; blocks visited more
than :data:`WIDEN_AFTER` times are widened so loops converge.  A final
pass over the stable entry states collects per-instruction results
(:class:`PcResult`): proven memory regions for the JIT, definite
out-of-bounds / division-by-zero faults, and initialization reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import domain
from ..domain import TOP, Interval
from ..interpreter import HEAP_BASE, STACK_BASE
from ..isa import (
    FP_REGISTER,
    LOAD_OPS,
    MEM_SIZES,
    NUM_REGISTERS,
    SEMANTICS,
    STACK_SIZE,
    STORE_IMM_OPS,
    STORE_REG_OPS,
    Instruction,
    Op,
)
from .cfg import ControlFlowGraph

_STACK_TOP = STACK_BASE + STACK_SIZE
#: Joins at one block before widening kicks in.
WIDEN_AFTER = 8

#: Registers holding definite values at entry: arguments r1-r5 and the
#: frame pointer.  r0/r6-r9 are zero-filled but never *assigned*.
_ENTRY_WRITTEN = sum(1 << r for r in range(1, 6)) | (1 << FP_REGISTER)


class AbsState:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "written", "stack_init", "slots")

    def __init__(self) -> None:
        regs: List[Interval] = [domain.const(0)] * NUM_REGISTERS
        for r in range(1, 6):
            regs[r] = TOP
        regs[FP_REGISTER] = domain.const(_STACK_TOP)
        self.regs = regs
        self.written = _ENTRY_WRITTEN
        self.stack_init = 0
        #: stack offset (0-based from STACK_BASE) -> dword value interval
        self.slots: Dict[int, Interval] = {}

    def copy(self) -> "AbsState":
        dup = AbsState.__new__(AbsState)
        dup.regs = list(self.regs)
        dup.written = self.written
        dup.stack_init = self.stack_init
        dup.slots = dict(self.slots)
        return dup

    def join_from(self, other: "AbsState", widen: bool) -> bool:
        """Merge ``other`` into self; True when self changed."""
        changed = False
        for i in range(NUM_REGISTERS):
            merged = domain.join(self.regs[i], other.regs[i])
            if widen:
                merged = domain.widen(self.regs[i], merged)
            if merged != self.regs[i]:
                self.regs[i] = merged
                changed = True
        written = self.written & other.written
        if written != self.written:
            self.written = written
            changed = True
        init = self.stack_init & other.stack_init
        if init != self.stack_init:
            self.stack_init = init
            changed = True
        for off in list(self.slots):
            theirs = other.slots.get(off)
            if theirs is None:
                del self.slots[off]
                changed = True
                continue
            merged = domain.join(self.slots[off], theirs)
            if widen:
                merged = domain.widen(self.slots[off], merged)
            if merged != self.slots[off]:
                if merged == TOP:
                    del self.slots[off]
                else:
                    self.slots[off] = merged
                changed = True
        return changed


class PcResult:
    """What the final pass learned about one instruction."""

    __slots__ = ("region", "definite_oob", "uninit_regs", "uninit_stack",
                 "definite_div_zero")

    def __init__(self) -> None:
        self.region: Optional[str] = None  # "stack" | "heap" when proven
        self.definite_oob = False
        self.uninit_regs: Set[int] = set()
        self.uninit_stack = False
        self.definite_div_zero = False


class CallSite:
    """One ``CALL`` instruction with the argument intervals that reach it.

    The helper ABI passes arguments in r1-r5; the intervals are the
    stable fixpoint values at the call, so a constant interval in
    ``args[0]`` (r1) statically identifies e.g. the field id a
    ``plugin_get``/``plugin_set`` helper touches."""

    __slots__ = ("pc", "helper_id", "args")

    def __init__(self, pc: int, helper_id: int,
                 args: Tuple[Interval, ...]) -> None:
        self.pc = pc
        self.helper_id = helper_id
        self.args = args

    def const_arg(self, index: int) -> Optional[int]:
        """The exact value of argument ``index`` (0 = r1) when the
        interval proves it constant, else ``None``."""
        if 0 <= index < len(self.args):
            return domain.is_const(self.args[index])
        return None


class AbstractInterpretation:
    """Run the worklist analysis for one program and collect results."""

    def __init__(self, cfg: ControlFlowGraph, heap_size: int):
        self.cfg = cfg
        self.heap_size = heap_size
        self.entry_states: Dict[int, AbsState] = {}
        self.pc_results: Dict[int, PcResult] = {}
        self.helper_ids: Set[int] = set()
        #: pc -> CallSite, recorded from the stable final pass.
        self.call_sites: Dict[int, CallSite] = {}
        self._run()
        self._collect()

    # --- fixpoint ---------------------------------------------------------

    def _run(self) -> None:
        cfg = self.cfg
        if cfg.entry not in cfg.blocks:
            return
        self.entry_states[cfg.entry] = AbsState()
        visits: Dict[int, int] = {}
        work: List[int] = [cfg.entry]
        queued: Set[int] = {cfg.entry}
        while work:
            start = work.pop(0)
            queued.discard(start)
            visits[start] = visits.get(start, 0) + 1
            state = self.entry_states[start].copy()
            block = cfg.blocks[start]
            for pc in range(block.start, block.end):
                self._transfer(cfg.instructions[pc], pc, state, None)
            for succ in block.successors:
                existing = self.entry_states.get(succ)
                if existing is None:
                    self.entry_states[succ] = state.copy()
                    changed = True
                else:
                    widen = visits.get(succ, 0) >= WIDEN_AFTER
                    changed = existing.join_from(state, widen)
                if changed and succ not in queued:
                    work.append(succ)
                    queued.add(succ)

    def block_exit_state(self, start: int) -> Optional[AbsState]:
        """The abstract state at the *exit* of one block, re-derived from
        its stable entry state (``None`` for unreachable blocks)."""
        entry = self.entry_states.get(start)
        if entry is None:
            return None
        state = entry.copy()
        block = self.cfg.blocks[start]
        for pc in range(block.start, block.end):
            self._transfer(self.cfg.instructions[pc], pc, state, None)
        return state

    def _collect(self) -> None:
        for start in sorted(self.entry_states):
            state = self.entry_states[start].copy()
            block = self.cfg.blocks[start]
            for pc in range(block.start, block.end):
                result = PcResult()
                self.pc_results[pc] = result
                self._transfer(self.cfg.instructions[pc], pc, state, result)

    # --- transfer function -------------------------------------------------

    def _transfer(self, ins: Instruction, pc: int, st: AbsState,
                  res: Optional[PcResult]) -> None:
        op = ins.opcode
        row = SEMANTICS.get(op)

        if row is not None:
            if op is row.imm:
                src = domain.const(ins.imm)
            else:
                self._read(ins.src, st, res)
                src = st.regs[ins.src]
                if row.may_fault and res is not None and src == (0, 0):
                    res.definite_div_zero = True
            if row.reg is not Op.MOV:
                self._read(ins.dst, st, res)
            if row.interval is not None:
                self._write(ins.dst, row.interval(st.regs[ins.dst], src), st)
            return
        if op is Op.NEG:
            self._read(ins.dst, st, res)
            self._write(ins.dst, domain.neg(st.regs[ins.dst]), st)
            return
        if op is Op.LDDW:
            self._write(ins.dst, domain.const(ins.imm), st)
            return
        if op in LOAD_OPS:
            self._read(ins.src, st, res)
            value = self._memory(ins, pc, st, res, store=False)
            self._write(ins.dst, value, st)
            return
        if op in STORE_REG_OPS:
            self._read(ins.dst, st, res)
            self._read(ins.src, st, res)
            self._memory(ins, pc, st, res, store=True)
            return
        if op in STORE_IMM_OPS:
            self._read(ins.dst, st, res)
            self._memory(ins, pc, st, res, store=True)
            return
        if op is Op.CALL:
            # Helpers receive r1-r5 and write only r0; they may also
            # write the running stack through vm.current_stack, so spill
            # slot values become unknown (their init-ness is preserved:
            # writes never un-initialize).
            self.helper_ids.add(ins.imm)
            if res is not None:
                self.call_sites[pc] = CallSite(
                    pc, ins.imm, tuple(st.regs[1:6]))
            self._write(0, TOP, st)
            st.slots.clear()
            return
        # JA / EXIT: no register or memory effect.

    def _read(self, reg: int, st: AbsState, res: Optional[PcResult]) -> None:
        if res is not None and not (st.written >> reg) & 1:
            res.uninit_regs.add(reg)

    @staticmethod
    def _write(reg: int, value: Interval, st: AbsState) -> None:
        st.regs[reg] = value
        st.written |= 1 << reg

    # --- memory ------------------------------------------------------------

    def _memory(self, ins: Instruction, pc: int, st: AbsState,
                res: Optional[PcResult], store: bool) -> Interval:
        """Model one load/store; returns the loaded value interval."""
        size = MEM_SIZES[ins.opcode]
        base_reg = ins.src if ins.opcode in LOAD_OPS else ins.dst
        addr = domain.add_const(st.regs[base_reg], ins.offset)
        stack_win = (STACK_BASE, STACK_BASE + STACK_SIZE - size)
        heap_win = (HEAP_BASE, HEAP_BASE + self.heap_size - size)

        in_stack = stack_win[0] <= addr[0] and addr[1] <= stack_win[1]
        in_heap = heap_win[0] <= addr[0] and addr[1] <= heap_win[1]
        touches_stack = addr[0] <= stack_win[1] and addr[1] >= stack_win[0]
        touches_heap = addr[0] <= heap_win[1] and addr[1] >= heap_win[0]

        if res is not None:
            if in_stack:
                res.region = "stack"
            elif in_heap:
                res.region = "heap"
            elif not touches_stack and not touches_heap:
                res.definite_oob = True

        loaded: Interval = TOP
        if size < 8:
            loaded = (0, (1 << (8 * size)) - 1)

        if in_stack:
            off = domain.is_const(addr)
            if off is not None:
                off -= STACK_BASE
                mask = ((1 << size) - 1) << off
                if store:
                    st.stack_init |= mask
                    if ins.opcode in STORE_REG_OPS and size == 8:
                        st.slots[off] = st.regs[ins.src]
                    elif ins.opcode in STORE_IMM_OPS and size == 8:
                        st.slots[off] = domain.const(ins.imm)
                    else:  # narrow store clobbers any overlapping slot
                        self._clobber_slots(st, off, size)
                else:
                    if res is not None and (st.stack_init & mask) != mask:
                        res.uninit_stack = True
                    if size == 8 and off in st.slots:
                        loaded = st.slots[off]
                return loaded
            if store:  # somewhere in the stack, unknown where
                st.slots.clear()
            return loaded

        if store and not in_heap and touches_stack:
            # May or may not hit the stack: spill slots become unknown.
            st.slots.clear()
        return loaded

    @staticmethod
    def _clobber_slots(st: AbsState, off: int, size: int) -> None:
        for slot in list(st.slots):
            if slot < off + size and off < slot + 8:
                del st.slots[slot]


def interpret(cfg: ControlFlowGraph,
              heap_size: int) -> AbstractInterpretation:
    """Run the abstract interpretation; never raises for structurally
    valid programs (the rule layer gates on that)."""
    return AbstractInterpretation(cfg, heap_size)
