"""The PRE interpreter with runtime memory monitoring (§2.1).

"Our PRE monitors the correct operation of the pluglets by injecting
specific instructions when their bytecode is JITed.  These monitoring
instructions check that the memory accesses operate within the allowed
bounds. [...] we add a register to the VM that cannot be used by pluglets.
This register is used to check that the memory accesses performed by a
pluglet remain within either the plugin dedicated memory or the pluglet
stack.  Any violation of memory safety results in the removal of the
plugin and the termination of the connection."

This interpreter performs the same checks inline on every load and store:
the *monitor register* is the interpreter-held pair of allowed regions
(pluglet stack, plugin heap) that bytecode has no way to address.  Helper
calls go through a dispatch table provided by the host (:mod:`repro.core.api`).

Memory layout (virtual addresses):

* stack:   ``[STACK_BASE, STACK_BASE + 512)`` — fresh per invocation,
  ``r10`` starts at ``STACK_BASE + 512`` (grows down);
* heap:    ``[HEAP_BASE, HEAP_BASE + heap_size)`` — the plugin's dedicated
  memory, shared among its pluglets (Figure 2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .isa import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    FP_REGISTER,
    JMP_IMM_OPS,
    JMP_REG_OPS,
    LOAD_OPS,
    MEM_SIZES,
    NUM_REGISTERS,
    STACK_SIZE,
    STORE_IMM_OPS,
    STORE_REG_OPS,
    WORD_MASK,
    Instruction,
    Op,
)

STACK_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000

#: Host defaults for the runtime fuel budgets; a manifest may override
#: them per pluglet (see :class:`repro.core.plugin.Pluglet`).
DEFAULT_FUEL = 1_000_000
DEFAULT_HELPER_BUDGET = 10_000


class VmError(Exception):
    """Base class for runtime failures inside the PRE."""


class MemoryViolation(VmError):
    """An access outside the pluglet stack / plugin memory.

    Per the paper, this removes the plugin and terminates the connection.
    """


class ExecutionError(VmError):
    """Runtime fault other than a memory violation (bad division, budget
    exhaustion, unknown helper...)."""


class FuelExhausted(ExecutionError):
    """The pluglet ran out of its per-invocation fuel (instruction) or
    helper-call budget.

    Defense in depth behind the static termination checker (§2.1): even a
    pluglet whose termination could not be proven — or whose proof was
    wrong — is stopped after a bounded amount of work.  Unlike a
    :class:`MemoryViolation`, fuel exhaustion is a *transient* fault: the
    containment policy detaches and quarantines the plugin instead of
    terminating the connection."""


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 64) if value >= 1 << 63 else value


class PluginMemory:
    """The plugin's dedicated heap, shared by its pluglets (Figure 2)."""

    def __init__(self, size: int = 16 * 1024):
        self.size = size
        self.data = bytearray(size)


class VirtualMachine:
    """Executes one pluglet's bytecode against a plugin memory."""

    #: Which engine executes ``run`` — the profiler attributes runs to
    #: "interpreter" or "jit" through this (overridden by the JIT VM).
    execution_path = "interpreter"

    def __init__(
        self,
        instructions: List[Instruction],
        plugin_memory: PluginMemory,
        helpers: Optional[Dict[int, Callable]] = None,
        instruction_budget: int = DEFAULT_FUEL,
        helper_call_budget: int = DEFAULT_HELPER_BUDGET,
    ):
        self.instructions = instructions
        self.memory = plugin_memory
        self.helpers = helpers or {}
        self.instruction_budget = instruction_budget
        self.helper_call_budget = helper_call_budget
        self.instructions_executed = 0  # cumulative across runs
        self.helper_calls_made = 0  # cumulative across runs
        self._helper_calls = 0  # current invocation
        #: The running invocation's stack, visible to helpers so they can
        #: resolve stack addresses a pluglet passes them.
        self.current_stack: Optional[bytearray] = None

    def counters(self) -> Dict[str, object]:
        """Cumulative execution counters (profiling/monitoring hook).

        Profilers snapshot these around ``run`` and attribute the deltas;
        both engines account identically (the JIT's batched fuel charges
        match the interpreter's at every observable event), so the
        numbers are engine-independent.
        """
        return {
            "instructions_executed": self.instructions_executed,
            "helper_calls_made": self.helper_calls_made,
            "execution_path": self.execution_path,
        }

    # --- memory monitor ----------------------------------------------------

    def _region(self, address: int, size: int,
                stack: bytearray) -> Tuple[bytearray, int]:
        """The monitor: resolve an address or raise MemoryViolation."""
        if STACK_BASE <= address and address + size <= STACK_BASE + STACK_SIZE:
            return stack, address - STACK_BASE
        heap_end = HEAP_BASE + self.memory.size
        if HEAP_BASE <= address and address + size <= heap_end:
            return self.memory.data, address - HEAP_BASE
        raise MemoryViolation(
            f"access of {size} bytes at 0x{address:x} outside pluglet stack "
            f"and plugin memory"
        )

    def load(self, address: int, size: int, stack: bytearray) -> int:
        buf, off = self._region(address, size, stack)
        return int.from_bytes(buf[off:off + size], "little")

    def store(self, address: int, size: int, value: int, stack: bytearray) -> None:
        buf, off = self._region(address, size, stack)
        buf[off:off + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    # --- execution ----------------------------------------------------------

    def run(self, *args: int) -> int:
        """Execute the pluglet with up to five integer arguments.

        Returns ``r0``.  Raises MemoryViolation / ExecutionError on fault.
        """
        if len(args) > 5:
            raise ValueError("at most 5 arguments (r1-r5)")
        regs = [0] * NUM_REGISTERS
        for i, a in enumerate(args):
            regs[i + 1] = a & WORD_MASK
        stack = bytearray(STACK_SIZE)
        regs[FP_REGISTER] = STACK_BASE + STACK_SIZE
        pc = 0
        budget = self.instruction_budget
        ins_list = self.instructions
        n = len(ins_list)
        executed = 0
        previous_stack = self.current_stack
        self.current_stack = stack
        self._helper_calls = 0
        try:
            while True:
                if pc < 0 or pc >= n:
                    raise ExecutionError(f"pc {pc} out of program")
                if executed >= budget:
                    raise FuelExhausted(
                        f"fuel budget exhausted ({budget} instructions)"
                    )
                executed += 1
                ins = ins_list[pc]
                op = ins.opcode
                if op is Op.EXIT:
                    return regs[0]
                pc = self._step(ins, op, regs, stack, pc)
        finally:
            self.instructions_executed += executed
            self.helper_calls_made += self._helper_calls
            self.current_stack = previous_stack

    def _step(self, ins: Instruction, op: Op, regs: List[int],
              stack: bytearray, pc: int) -> int:
        if op in ALU_REG_OPS:
            regs[ins.dst] = self._alu(op, regs[ins.dst], regs[ins.src])
            return pc + 1
        if op in ALU_IMM_OPS:
            base = Op(op - 0x10)
            regs[ins.dst] = self._alu(base, regs[ins.dst], ins.imm & WORD_MASK)
            return pc + 1
        if op is Op.NEG:
            regs[ins.dst] = (-regs[ins.dst]) & WORD_MASK
            return pc + 1
        if op is Op.LDDW:
            regs[ins.dst] = ins.imm & WORD_MASK
            return pc + 1
        if op is Op.JA:
            return pc + 1 + ins.offset
        if op in JMP_REG_OPS:
            taken = self._cond(op, regs[ins.dst], regs[ins.src])
            return pc + 1 + (ins.offset if taken else 0)
        if op in JMP_IMM_OPS:
            base = Op(op - 0x10)
            taken = self._cond(base, regs[ins.dst], ins.imm & WORD_MASK)
            return pc + 1 + (ins.offset if taken else 0)
        if op in LOAD_OPS:
            size = MEM_SIZES[op]
            addr = (regs[ins.src] + ins.offset) & WORD_MASK
            regs[ins.dst] = self.load(addr, size, stack)
            return pc + 1
        if op in STORE_REG_OPS:
            size = MEM_SIZES[op]
            addr = (regs[ins.dst] + ins.offset) & WORD_MASK
            self.store(addr, size, regs[ins.src], stack)
            return pc + 1
        if op in STORE_IMM_OPS:
            size = MEM_SIZES[op]
            addr = (regs[ins.dst] + ins.offset) & WORD_MASK
            self.store(addr, size, ins.imm, stack)
            return pc + 1
        if op is Op.CALL:
            helper = self.helpers.get(ins.imm)
            if helper is None:
                raise ExecutionError(f"unknown helper id {ins.imm}")
            if self._helper_calls >= self.helper_call_budget:
                raise FuelExhausted(
                    f"helper-call budget exhausted "
                    f"({self.helper_call_budget} calls)"
                )
            self._helper_calls += 1
            result = helper(self, regs[1], regs[2], regs[3], regs[4], regs[5])
            regs[0] = (result or 0) & WORD_MASK
            return pc + 1
        raise ExecutionError(f"unhandled opcode {op!r}")

    @staticmethod
    def _alu(op: Op, dst: int, src: int) -> int:
        if op is Op.ADD:
            return (dst + src) & WORD_MASK
        if op is Op.SUB:
            return (dst - src) & WORD_MASK
        if op is Op.MUL:
            return (dst * src) & WORD_MASK
        if op is Op.DIV:
            if src == 0:
                raise ExecutionError("division by zero")
            return (dst // src) & WORD_MASK
        if op is Op.MOD:
            if src == 0:
                raise ExecutionError("modulo by zero")
            return (dst % src) & WORD_MASK
        if op is Op.AND:
            return dst & src
        if op is Op.OR:
            return dst | src
        if op is Op.XOR:
            return dst ^ src
        if op is Op.LSH:
            return (dst << (src & 63)) & WORD_MASK
        if op is Op.RSH:
            return (dst >> (src & 63)) & WORD_MASK
        if op is Op.ARSH:
            return (_signed(dst) >> (src & 63)) & WORD_MASK
        if op is Op.MOV:
            return src & WORD_MASK
        raise ExecutionError(f"bad ALU op {op!r}")

    @staticmethod
    def _cond(op: Op, dst: int, src: int) -> bool:
        if op is Op.JEQ:
            return dst == src
        if op is Op.JNE:
            return dst != src
        if op is Op.JGT:
            return dst > src
        if op is Op.JGE:
            return dst >= src
        if op is Op.JLT:
            return dst < src
        if op is Op.JLE:
            return dst <= src
        if op is Op.JSGT:
            return _signed(dst) > _signed(src)
        if op is Op.JSLT:
            return _signed(dst) < _signed(src)
        if op is Op.JSET:
            return bool(dst & src)
        raise ExecutionError(f"bad jump op {op!r}")
