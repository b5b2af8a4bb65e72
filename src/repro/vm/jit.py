"""JIT translation of verified PRE bytecode into specialized Python closures.

The paper's PRE does not interpret pluglet bytecode: "our PRE monitors the
correct operation of the pluglets by injecting specific instructions when
their bytecode is JITed" (§2.1), and the low overheads of Table 3 depend on
it.  This module mirrors that design point at the Python level: a verified
program is translated *once* into a single specialized Python function —
one function per pluglet — and the memory monitor plus fuel accounting are
injected inline into the generated code as cheap local-variable
comparisons, exactly the "monitoring instructions" of the paper.

Translation scheme
==================

* Registers ``r0``–``r9`` become Python locals; the read-only frame
  pointer ``r10`` is folded to the constant ``STACK_BASE + STACK_SIZE``.
  Generated code maintains the invariant that every register local is a
  non-negative int below 2**64, so masking is emitted only where a result
  can actually leave that range.
* ALU and conditional-jump instructions are emitted from the ``jit``
  templates of the ISA's semantics table (:data:`repro.vm.isa.SEMANTICS`).
* Control flow is flattened: basic blocks — the analyzer's
  (:func:`repro.vm.analysis.cfg.block_starts`) — become guarded sections
  ``if _bb <= k:`` inside a single ``while 1:`` loop.  A jump sets ``_bb``
  and ``continue``s; falling off a block flows naturally into the next
  guard, so straight-line code pays nothing for the dispatch.
* Frame-pointer-relative accesses (the common case for compiled pluglets)
  have their bounds check folded away at translation time — and, in a
  private frame, become accesses to a Python local (see *Frame
  promotion*); other accesses get the two-region monitor check inlined
  as two chained comparisons.
* Fuel is accounted in *batches*: pure register-only instructions
  accumulate a pending count which is flushed — ``_fuel -= k`` plus one
  comparison — before any instruction whose effects are observable from
  outside the register file (memory, helpers, division faults, exit) and
  at every block boundary.  At any observable event the charged total is
  exactly the interpreter's count, so results, cumulative counters and
  fault classes are bit-identical to :class:`~repro.vm.interpreter.
  VirtualMachine` (the differential suite in ``tests/test_vm_jit.py``
  enforces this).

Frame promotion
===============

Compiled pluglets keep their locals in registers; what does not fit —
locals past the four callee-saved registers, spilled temporaries — lives
in FP-relative stack slots.  When a program's frame is *private* its
slots become Python locals as well (``s<stack offset>``), in both
closures.  A frame is private when

* ``r10`` appears only as the base register of loads and stores — never
  as an ALU or jump operand, never stored as a value — so no stack
  address can be computed from it;
* every FP-relative access lies inside the 512-byte stack;
* the accessed ``(offset, size)`` footprints are pairwise identical or
  disjoint, so each one can be a variable of its own.

The test reads the bytecode alone.  Slots start at 0 like the zeroed
stack they stand for, and sub-word stores mask as the memory would.  A
promoted access cannot fault, and nothing can look at a slot after a
fault (the stack is dropped with the invocation), so it counts as *pure*
for fuel batching: it is charged in arrears like an ALU op and a
straight-line run of ALU ops and slot accesses collapses to one
``_fuel -= k``.  No batch spans an observable instruction, so the charge
at every observable event is still the interpreter's.

The stack bytearray stays, because two other doors lead to it: a
monitored access through a register other than ``r10`` may land in the
stack (its stack arm; or the whole access, once proven to), and a helper
may go through ``vm.current_stack``.  At exactly those points every slot
is written back before and re-read after — one struct call per run of
adjacent slots — so the bytearray is current whenever anything can read
it by address, and the locals are whenever the pluglet resumes.  Helpers
declared not to reach the stack (``HelperEffect.reaches_stack`` false;
``compile_jit``'s ``stack_blind``) are called without the bracket; an id
with no declaration is assumed to reach it.

A frame that fails the test is compiled by the unpromoted emission —
each FP-relative access a struct call on the bytearray behind its own
fuel flush — exactly as before promotion existed.

Proof-guided specialization
===========================

When the static analyzer (:mod:`repro.vm.analysis`) proves facts about a
program, ``compile_jit`` accepts its report as ``proof`` and emits a
*second*, leaner closure:

* a memory access proven to always land in one region loses the inlined
  two-region monitor and indexes the buffer directly;
* a program with a worst-case ``fuel_bound`` keeps its exact
  ``_fuel -= k`` accounting but drops every exhaustion *check* — the
  bound comes from loop-freedom or, for looping programs, from a static
  fuel certificate (:mod:`repro.vm.analysis.fuelbound`: proven trip
  counts x per-lap cost, recorded in the analysis report);
* likewise the helper-call budget check when ``helper_bound`` is proven.

Eliding a budget check is only equivalent when the budget cannot be hit,
so :class:`JitVirtualMachine` gates the specialized closure at run time:
it is used only when ``instruction_budget >= fuel_bound`` and
``helper_call_budget >= helper_bound`` (and the actual plugin memory is
at least the size the proofs assumed); otherwise every run goes through
the fully-checked closure.  Both closures flush fuel at identical
program points, so counters and fault behaviour stay bit-identical
either way.  Since a gate is rarely closed, :func:`load_jit` compiles
only the specialized closure of a proven program; the fully-checked one
is compiled by the first run that needs it, once per :class:`JitCode`,
and shared from then on.

The interpreter remains the reference semantics: anything ``compile_jit``
does not cover raises :class:`JitError` and :class:`JitVirtualMachine`
falls back to interpreting, so the JIT can never change behaviour — only
speed.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Container, Dict, List, Optional

from .interpreter import (
    DEFAULT_FUEL,
    DEFAULT_HELPER_BUDGET,
    HEAP_BASE,
    STACK_BASE,
    ExecutionError,
    FuelExhausted,
    MemoryViolation,
    PluginMemory,
    VirtualMachine,
)
from .analysis.cfg import block_starts
from .isa import (
    DST_WRITE_OPS,
    FP_REGISTER,
    LOAD_OPS,
    MEM_SIZES,
    NUM_REGISTERS,
    SEMANTICS,
    STACK_SIZE,
    STORE_REG_OPS,
    WORD_MASK,
    Op,
    to_signed,
)

__all__ = [
    "JitError",
    "compile_jit",
    "JitCode",
    "load_jit",
    "JitVirtualMachine",
    "create_vm",
    "jit_enabled_by_env",
]

_M = WORD_MASK
_M_LIT = str(WORD_MASK)  # 18446744073709551615
_SIGN_LIT = str(1 << 63)
_TWO64_LIT = str(1 << 64)
_STACK_TOP = STACK_BASE + STACK_SIZE
#: The constants a semantics-table template names.
_TEMPLATE_CONSTS = {"mask": _M_LIT, "two64": _TWO64_LIT, "sign": _SIGN_LIT}

#: Programs larger than this fall back to the interpreter — keeps worst
#: case translation time bounded (the verifier itself allows 65k).
MAX_JIT_PROGRAM = 16_384


class JitError(Exception):
    """The program cannot be translated; callers fall back to the
    interpreter (which yields identical runtime semantics)."""


_EXEC_GLOBALS = {
    "__builtins__": {},
    "_ExecutionError": ExecutionError,
    "_FuelExhausted": FuelExhausted,
    "_MemoryViolation": MemoryViolation,
    "_u2": struct.Struct("<H").unpack_from,
    "_u4": struct.Struct("<I").unpack_from,
    "_u8": struct.Struct("<Q").unpack_from,
    "_p2": struct.Struct("<H").pack_into,
    "_p4": struct.Struct("<I").pack_into,
    "_p8": struct.Struct("<Q").pack_into,
}


def _reg_expr(reg: int) -> str:
    """Expression for reading a register (r10 folds to a constant)."""
    return str(_STACK_TOP) if reg == FP_REGISTER else f"r{reg}"


def _signed_expr(expr: str) -> str:
    return f"(({expr} - {_TWO64_LIT}) if {expr} >= {_SIGN_LIT} else {expr})"


class _Emitter:
    """Collects generated lines for one basic block and tracks which
    runtime preamble facilities (heap view, helper table) are needed."""

    def __init__(self, indent: str, fuel_check: bool = True,
                 frame: Optional["_Frame"] = None):
        self.lines: List[str] = []
        self.indent = indent
        self.fuel_check = fuel_check
        #: The promoted frame; None for one that stays in the stack
        #: bytearray.
        self.frame = frame
        self.uses_heap = False
        self.uses_call = False
        self.heap_sizes: set = set()

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def write_back(self, prefix: str = "") -> None:
        """Store every promoted slot to the stack bytearray: emitted
        before code that may reach the stack by address."""
        if self.frame is not None:
            for line in self.frame.write_back:
                self.emit(prefix + line)

    def re_read(self, prefix: str = "") -> None:
        """Load every promoted slot back after such code."""
        if self.frame is not None:
            for line in self.frame.re_read:
                self.emit(prefix + line)

    def flush_fuel(self, count: int) -> None:
        """Charge `count` instructions; on exhaustion the partial batch is
        zeroed so `executed == budget` exactly as the interpreter reports.
        With a proven fuel bound the check is elided (the caller gates
        the closure on `budget >= bound`) but the exact `_fuel -= k`
        accounting — at the same program points — remains."""
        if count == 0:
            return
        self.emit(f"_fuel -= {count}")
        if not self.fuel_check:
            return
        self.emit("if _fuel < 0:")
        self.emit("    _fuel = 0")
        self.emit('    raise _FuelExhausted('
                  '"fuel budget exhausted (%d instructions)" % _budget)')


def _emit_memory_op(em: _Emitter, op: Op, dst: int, src: int,
                    offset: int, imm: int,
                    region: Optional[str] = None) -> None:
    size = MEM_SIZES[op]
    is_load = op in LOAD_OPS
    base_reg = src if is_load else dst
    if is_load:
        value = None
    elif op in STORE_REG_OPS:
        value = _reg_expr(src)
        if size < 8:
            value = f"({value} & {(1 << (8 * size)) - 1})"
    else:  # store immediate: fold the mask now
        value = str(imm & ((1 << (8 * size)) - 1))

    def stack_access(addr_expr: str) -> str:
        if size == 1:
            if is_load:
                return f"r{dst} = stack[{addr_expr}]"
            return f"stack[{addr_expr}] = {value}"
        if is_load:
            return f"r{dst} = _u{size}(stack, {addr_expr})[0]"
        return f"_p{size}(stack, {addr_expr}, {value})"

    def heap_access(addr_expr: str) -> str:
        if size == 1:
            if is_load:
                return f"r{dst} = _heap[{addr_expr}]"
            return f"_heap[{addr_expr}] = {value}"
        if is_load:
            return f"r{dst} = _u{size}(_heap, {addr_expr})[0]"
        return f"_p{size}(_heap, {addr_expr}, {value})"

    if base_reg == FP_REGISTER:
        if em.frame is not None:
            # Private frame: the slot is a local (see `_private_frame`).
            slot = f"s{STACK_SIZE + offset}"
            em.emit(f"r{dst} = {slot}" if is_load else f"{slot} = {value}")
            return
        # Frame-pointer-relative: the address is a translation-time
        # constant, so the monitor check is resolved here — accesses that
        # stay in the stack need no runtime check at all.
        addr = (_STACK_TOP + offset) & _M
        if STACK_BASE <= addr <= STACK_BASE + STACK_SIZE - size:
            em.emit(stack_access(str(addr - STACK_BASE)))
        else:
            em.emit(f'raise _MemoryViolation("access of {size} bytes at '
                    f'0x{addr:x} outside pluglet stack and plugin memory")')
        return

    base = _reg_expr(base_reg)
    if offset:
        em.emit(f"_a = ({base} + ({offset})) & {_M_LIT}")
    else:
        em.emit(f"_a = {base}")
    if region == "stack":
        # Proven: every execution lands in the pluglet stack.
        em.write_back()
        em.emit(stack_access(f"_a - {STACK_BASE}"))
        em.re_read()
        return
    if region == "heap":
        em.uses_heap = True
        em.emit(heap_access(f"_a - {HEAP_BASE}"))
        return
    em.uses_heap = True
    em.heap_sizes.add(size)
    em.emit(f"if {STACK_BASE} <= _a <= {STACK_BASE + STACK_SIZE - size}:")
    em.write_back("    ")
    em.emit("    " + stack_access(f"_a - {STACK_BASE}"))
    em.re_read("    ")
    em.emit(f"elif {HEAP_BASE} <= _a <= _he{size}:")
    em.emit("    " + heap_access(f"_a - {HEAP_BASE}"))
    em.emit("else:")
    em.emit(f'    raise _MemoryViolation("access of {size} bytes at 0x%x '
            f'outside pluglet stack and plugin memory" % _a)')


_STRUCT_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Frame:
    """A private frame promoted to locals: slot at stack offset ``at``
    is the local ``s<at>``.  ``write_back`` / ``re_read`` are the lines
    that store every slot to the stack bytearray / load it back, one
    struct call per run of adjacent slots (the bytes between runs are
    not slots and must not be written); ``namespace`` holds the struct
    functions those lines name."""

    def __init__(self, slots: Dict[int, int]):
        self.names = [f"s{at}" for at in slots]
        self.write_back: List[str] = []
        self.re_read: List[str] = []
        self.namespace: dict = {}
        runs: List[List[int]] = []
        for at in sorted(slots):
            if runs and runs[-1][-1] + slots[runs[-1][-1]] == at:
                runs[-1].append(at)
            else:
                runs.append([at])
        for k, run in enumerate(runs):
            packer = struct.Struct(
                "<" + "".join(_STRUCT_CODE[slots[at]] for at in run))
            names = ", ".join(f"s{at}" for at in run)
            self.namespace[f"_wb{k}"] = packer.pack_into
            self.namespace[f"_rr{k}"] = packer.unpack_from
            self.write_back.append(f"_wb{k}(stack, {run[0]}, {names})")
            self.re_read.append(f"({names},) = _rr{k}(stack, {run[0]})")


def _mem_base(ins) -> int:
    """The address register of a load or store."""
    return ins.src if ins.opcode in LOAD_OPS else ins.dst


def _private_frame(instructions) -> Optional[_Frame]:
    """The promoted frame of a program whose frame is private, None when
    the frame has to stay in memory.

    Private means the bytecode can reach its stack by address only
    through constant ``r10 + offset`` accesses: ``r10`` is never an ALU
    or jump operand and never stored as a value, every such access lies
    inside the stack, and any two footprints are identical or disjoint —
    so each footprint can live in a local of its own."""
    slots: Dict[int, int] = {}  # stack offset -> size
    for ins in instructions:
        op = ins.opcode
        row = SEMANTICS.get(op)
        if row is not None:
            if FP_REGISTER == ins.dst \
                    or (op is row.reg and FP_REGISTER == ins.src):
                return None
        elif op in STORE_REG_OPS and ins.src == FP_REGISTER:
            return None
        if op in MEM_SIZES and _mem_base(ins) == FP_REGISTER:
            size = MEM_SIZES[op]
            at = STACK_SIZE + ins.offset
            if not 0 <= at <= STACK_SIZE - size \
                    or slots.setdefault(at, size) != size:
                return None
    end = 0
    for at in sorted(slots):
        if at < end:
            return None
        end = at + slots[at]
    return _Frame(slots)


def compile_jit(instructions, proof=None,
                stack_blind: Container[int] = ()) -> Callable:
    """Translate a program into a Python function with inlined monitoring.

    The returned callable has signature ``fn(vm, stack, out, r1..r5)``;
    ``out`` is a two-slot list receiving ``[instructions_executed,
    helper_calls]`` even when the function raises.  Raises :class:`JitError`
    when the program cannot be translated (caller falls back to the
    interpreter).

    ``proof`` is an :class:`repro.vm.analysis.AnalysisReport` (or any
    object with ``mem_facts`` / ``fuel_bound`` / ``helper_bound``): its
    per-pc region facts drop the inlined memory monitor, and proven
    fuel / helper bounds drop the budget checks.  The caller MUST gate
    the resulting closure on ``instruction_budget >= fuel_bound``,
    ``helper_call_budget >= helper_bound`` and an actual plugin memory
    at least ``proof.heap_size`` bytes — :class:`JitVirtualMachine`
    does — otherwise elided checks could change behaviour.

    ``stack_blind`` holds the ids of helpers declared never to touch the
    calling pluglet's stack (``HelperEffect.reaches_stack`` false); in a
    promoted frame a call to any other id is bracketed by a write-back.
    """
    mem_facts: dict = {}
    fuel_check = helper_check = True
    if proof is not None:
        mem_facts = dict(getattr(proof, "mem_facts", {}) or {})
        fuel_check = getattr(proof, "fuel_bound", None) is None
        helper_check = getattr(proof, "helper_bound", None) is None
    n = len(instructions)
    if n == 0:
        raise JitError("empty program")
    if n > MAX_JIT_PROGRAM:
        raise JitError(f"program too large to JIT ({n} instructions)")

    for ins in instructions:
        op = ins.opcode
        if not isinstance(op, Op):
            raise JitError(f"unknown opcode {op!r}")
        if not (0 <= ins.dst < NUM_REGISTERS and 0 <= ins.src < NUM_REGISTERS):
            raise JitError(f"register out of range in {ins!r}")
        if op in DST_WRITE_OPS and ins.dst == FP_REGISTER:
            raise JitError("write to read-only r10")
        row = SEMANTICS.get(op)
        if row is not None and row.may_fault and op is row.imm \
                and (ins.imm & _M) == 0:
            raise JitError("division by zero immediate")

    order = block_starts(instructions)
    block_of = {start: i for i, start in enumerate(order)}

    frame = _private_frame(instructions)
    body_indent = " " * 16
    emitters: List[_Emitter] = []
    uses_heap = False
    uses_call = False
    heap_sizes: set = set()

    for bi, start in enumerate(order):
        end = order[bi + 1] if bi + 1 < len(order) else n
        em = _Emitter(body_indent, fuel_check=fuel_check, frame=frame)
        emitters.append(em)
        pending = 0
        terminated = False
        for pc in range(start, end):
            ins = instructions[pc]
            op = ins.opcode
            row = SEMANTICS.get(op)

            if row is not None and row.writes_dst:
                if op is row.imm:
                    src = str(ins.imm & _M)
                    shift = str(ins.imm & 63)
                else:
                    src = _reg_expr(ins.src)
                    shift = f"({src} & 63)"
                line = row.jit.format(d=f"r{ins.dst}", s=src, k=shift,
                                      **_TEMPLATE_CONSTS)
                # Pure instructions only touch the register file and
                # cannot fault, so their fuel is charged in arrears
                # (registers are unobservable after a fault).  An
                # immediate divisor is nonzero: translation rejects zero.
                if row.pure or op is row.imm:
                    em.emit(line)
                    pending += 1
                else:  # DIV / MOD by register: can fault
                    em.flush_fuel(pending + 1)
                    pending = 0
                    em.emit(f"if {src} == 0:")
                    em.emit(f'    raise _ExecutionError("{row.fault}")')
                    em.emit(line)
                continue
            if op is Op.NEG:
                em.emit(f"r{ins.dst} = (-r{ins.dst}) & {_M_LIT}")
                pending += 1
                continue
            if op is Op.LDDW:
                em.emit(f"r{ins.dst} = {ins.imm & _M}")
                pending += 1
                continue
            if op in MEM_SIZES:
                if frame is not None and _mem_base(ins) == FP_REGISTER:
                    # A promoted slot is a register in all but name: the
                    # access cannot fault and nothing sees the slot after
                    # a fault, so it is charged in arrears.
                    pending += 1
                else:
                    em.flush_fuel(pending + 1)
                    pending = 0
                _emit_memory_op(em, op, ins.dst, ins.src, ins.offset,
                                ins.imm, region=mem_facts.get(pc))
                continue
            if op is Op.CALL:
                em.flush_fuel(pending + 1)
                pending = 0
                uses_call = True
                em.emit(f"_h = _hget({ins.imm})")
                em.emit("if _h is None:")
                em.emit(f'    raise _ExecutionError('
                        f'"unknown helper id {ins.imm}")')
                if helper_check:
                    em.emit("if _hcalls >= _hbudget:")
                    em.emit('    raise _FuelExhausted('
                            '"helper-call budget exhausted (%d calls)" '
                            '% _hbudget)')
                em.emit("_hcalls += 1")
                if ins.imm in stack_blind:
                    em.emit("_r = _h(vm, r1, r2, r3, r4, r5)")
                else:  # may go through vm.current_stack
                    em.write_back()
                    em.emit("_r = _h(vm, r1, r2, r3, r4, r5)")
                    em.re_read()
                em.emit(f"r0 = (_r or 0) & {_M_LIT}")
                continue
            if op is Op.EXIT:
                em.flush_fuel(pending + 1)
                em.emit("return r0")
                terminated = True
                continue
            if op is Op.JA:
                em.flush_fuel(pending + 1)
                target = pc + 1 + ins.offset
                if target < 0 or target >= n:
                    em.emit(f'raise _ExecutionError('
                            f'"pc {target} out of program")')
                elif target != pc + 1:
                    em.emit(f"_bb = {block_of[target]}")
                    em.emit("continue")
                terminated = True
                continue
            if row is not None:  # conditional jump
                em.flush_fuel(pending + 1)
                if op is row.imm:
                    b_const: Optional[int] = ins.imm & _M
                    b_expr = str(b_const)
                else:
                    b_const = _STACK_TOP if ins.src == FP_REGISTER else None
                    b_expr = _reg_expr(ins.src)
                a_expr = _reg_expr(ins.dst)
                cond = row.jit.format(
                    a=a_expr, b=b_expr, sa=_signed_expr(a_expr),
                    sb=_signed_expr(b_expr) if b_const is None
                    else str(to_signed(b_const)))
                target = pc + 1 + ins.offset
                if target != pc + 1 or target >= n:
                    em.emit(f"if {cond}:")
                    if target < 0 or target >= n:
                        em.emit(f'    raise _ExecutionError('
                                f'"pc {target} out of program")')
                    else:
                        em.emit(f"    _bb = {block_of[target]}")
                        em.emit("    continue")
                if pc + 1 >= n:
                    em.emit(f'raise _ExecutionError('
                            f'"pc {pc + 1} out of program")')
                terminated = True
                continue
            raise JitError(f"unsupported opcode {op!r}")

        if not terminated:
            # Fell off the block end: either into the next block (pc is a
            # jump target) or off the end of the program.
            em.flush_fuel(pending)
            if end == n:
                em.emit(f'raise _ExecutionError("pc {n} out of program")')
        uses_heap = uses_heap or em.uses_heap
        heap_sizes |= em.heap_sizes

    lines: List[str] = [
        "def _pluglet(vm, stack, out, r1, r2, r3, r4, r5):",
        "    _budget = vm.instruction_budget",
        "    _fuel = _budget",
        "    _hcalls = 0",
    ]
    if uses_call:
        lines.append("    _hbudget = vm.helper_call_budget")
        lines.append("    _hget = vm.helpers.get")
    if uses_heap:
        lines.append("    _heap = vm.memory.data")
        lines.append(f"    _hm = {HEAP_BASE} + vm.memory.size")
        for size in sorted(heap_sizes):
            lines.append(f"    _he{size} = _hm - {size}")
    lines += [
        "    r0 = 0",
        "    r6 = 0",
        "    r7 = 0",
        "    r8 = 0",
        "    r9 = 0",
    ]
    if frame is not None and frame.names:
        # Slots start at 0 like the zeroed stack they stand for.
        lines.append("    " + " = ".join(frame.names) + " = 0")
    lines += [
        "    _bb = 0",
        "    try:",
        "        while 1:",
    ]
    for bi, em in enumerate(emitters):
        lines.append(f"            if _bb <= {bi}:")
        lines.extend(em.lines)
    lines += [
        "    finally:",
        "        out[0] = _budget - _fuel",
        "        out[1] = _hcalls",
    ]
    source = "\n".join(lines) + "\n"

    namespace = dict(_EXEC_GLOBALS)
    if frame is not None:
        namespace.update(frame.namespace)
    try:
        code = compile(source, "<pre-jit>", "exec")
    except SyntaxError as exc:  # pragma: no cover - translation bug guard
        raise JitError(f"generated code failed to compile: {exc}") from exc
    exec(code, namespace)
    fn = namespace["_pluglet"]
    fn.source = source
    return fn


def jit_enabled_by_env() -> bool:
    """The JIT is on by default; ``REPRO_JIT=0`` forces the interpreter."""
    return os.environ.get("REPRO_JIT", "1") != "0"


class JitCode:
    """The compiled closures of one pluglet plus the gates of the
    proof-specialized one.

    Depends only on the bytecode and its analysis report, never on a
    connection: the generated functions take the VM as an argument and
    keep all state in locals, so one ``JitCode`` serves any number of
    :class:`JitVirtualMachine` shells, concurrently and re-entrantly.

    ``deferred`` — ``(instructions, stack_blind)`` — leaves the
    fully-checked closure to be compiled on the first read of
    :attr:`checked`: :func:`load_jit` defers it when a specialized
    closure exists, since only a run whose gates are closed needs it.
    """

    __slots__ = ("fast", "fuel_bound", "helper_bound", "heap_size",
                 "_checked", "_deferred")

    def __init__(self, checked: Optional[Callable] = None,
                 fast: Optional[Callable] = None,
                 fuel_bound: Optional[int] = None,
                 helper_bound: Optional[int] = None,
                 heap_size: int = 0,
                 deferred: Optional[tuple] = None):
        self._checked = checked
        self._deferred = deferred
        #: Monitor-free closure; None when no proof applies.
        self.fast = fast
        self.fuel_bound = fuel_bound
        self.helper_bound = helper_bound
        #: Plugin memory size the heap in-bounds proofs assumed.
        self.heap_size = heap_size

    @property
    def checked(self) -> Optional[Callable]:
        """Fully-checked closure; None when the program cannot be
        translated (the VM then interprets).  A deferred one is compiled
        here, exactly once."""
        if self._deferred is not None:
            instructions, stack_blind = self._deferred
            self._deferred = None
            try:
                self._checked = compile_jit(instructions,
                                            stack_blind=stack_blind)
            except JitError:
                self._checked = None
        return self._checked


def load_jit(instructions: list, analysis: Optional[object] = None,
             stack_blind: Container[int] = ()) -> JitCode:
    """Compile a pluglet once.  When ``analysis`` (an
    :class:`~repro.vm.analysis.AnalysisReport`) is clean and proves
    something, that is the monitor-free closure with its gates, and the
    fully-checked closure is deferred to the first run that needs it;
    otherwise it is the fully-checked closure.  ``stack_blind`` is passed
    on to :func:`compile_jit`."""
    proven = analysis is not None and getattr(analysis, "ok", False) and (
        getattr(analysis, "mem_facts", None)
        or getattr(analysis, "fuel_bound", None) is not None
        or getattr(analysis, "helper_bound", None) is not None)
    try:
        if not proven:  # no proof, or one that elides nothing
            return JitCode(compile_jit(instructions, stack_blind=stack_blind))
        fast = compile_jit(instructions, proof=analysis,
                           stack_blind=stack_blind)
    except JitError:
        return JitCode(None)
    return JitCode(fast=fast,
                   fuel_bound=getattr(analysis, "fuel_bound", None),
                   helper_bound=getattr(analysis, "helper_bound", None),
                   heap_size=getattr(analysis, "heap_size", 0),
                   deferred=(instructions, stack_blind))


class JitVirtualMachine(VirtualMachine):
    """A VirtualMachine that executes through JIT-compiled closures.

    Subclasses the interpreter so helpers keep their full API surface
    (``current_stack``, ``load``/``store``, budgets).  ``code`` comes from
    :func:`load_jit` and may be shared with other VMs; counters, budgets
    and memory are this VM's own.  If translation failed, ``run``
    transparently falls back to the interpreter loop.  A run whose gates
    keep it off the specialized closure takes the fully-checked one,
    which ``code`` compiles on the first such run of any of its VMs.
    """

    def __init__(
        self,
        instructions: list,
        plugin_memory: PluginMemory,
        helpers: Optional[dict] = None,
        instruction_budget: int = DEFAULT_FUEL,
        helper_call_budget: int = DEFAULT_HELPER_BUDGET,
        *,
        code: JitCode,
    ):
        super().__init__(instructions, plugin_memory, helpers,
                         instruction_budget, helper_call_budget)
        self.code = code
        # The heap in-bounds facts assumed `heap_size` bytes; dropping the
        # monitor against a smaller memory would be unsound.
        self._fast_function: Optional[Callable] = (
            code.fast if plugin_memory.size >= code.heap_size else None)
        self._fuel_bound = code.fuel_bound
        self._helper_bound = code.helper_bound

    @property
    def jit_function(self) -> Optional[Callable]:
        """The fully-checked closure (compiled by this read if it was
        deferred); None when the program cannot be translated."""
        return self.code.checked

    @property
    def jit_enabled(self) -> bool:
        return self._fast_function is not None or self.jit_function is not None

    @property
    def jit_specialized(self) -> bool:
        """True when a proof-guided monitor-free closure was compiled."""
        return self._fast_function is not None

    @property
    def execution_path(self) -> str:  # type: ignore[override]
        """"jit" when runs go through the compiled closure, else the
        interpreter fallback (profiling attribution)."""
        return "jit" if self.jit_enabled else "interpreter"

    def run(self, a1: int = 0, a2: int = 0, a3: int = 0, a4: int = 0,
            a5: int = 0) -> int:
        fn = self._fast_function
        if fn is None \
                or (self._fuel_bound is not None
                    and self.instruction_budget < self._fuel_bound) \
                or (self._helper_bound is not None
                    and self.helper_call_budget < self._helper_bound):
            fn = self.code.checked
            if fn is None:
                return super().run(a1, a2, a3, a4, a5)
        stack = bytearray(STACK_SIZE)
        out = [0, 0]
        previous_stack = self.current_stack
        self.current_stack = stack
        self._helper_calls = 0
        try:
            return fn(self, stack, out, a1 & _M, a2 & _M, a3 & _M,
                      a4 & _M, a5 & _M)
        finally:
            self.instructions_executed += out[0]
            self._helper_calls = out[1]
            self.helper_calls_made += out[1]
            self.current_stack = previous_stack


def create_vm(
    instructions: list,
    plugin_memory: PluginMemory,
    helpers: Optional[dict] = None,
    instruction_budget: int = DEFAULT_FUEL,
    helper_call_budget: int = DEFAULT_HELPER_BUDGET,
    analysis: Optional[object] = None,
    code: Optional[JitCode] = None,
) -> VirtualMachine:
    """Build the fastest available VM for a pluglet.

    ``code`` is the pluglet's already loaded :class:`JitCode`: a plugin
    loads it once and hands it to the VM of every connection.  Without
    it the pluglet is compiled here — with the proofs of ``analysis``,
    monitored throughout when there is none — or, when the
    ``REPRO_JIT=0`` environment switch forces it, run by the reference
    interpreter.
    """
    if code is None:
        if not jit_enabled_by_env():
            return VirtualMachine(instructions, plugin_memory, helpers,
                                  instruction_budget, helper_call_budget)
        code = load_jit(instructions, analysis)
    return JitVirtualMachine(instructions, plugin_memory, helpers,
                             instruction_budget, helper_call_budget,
                             code=code)
