"""Instruction set of the Pluglet Runtime Environment (PRE).

The paper's PRE is a user-space eBPF VM (§2.1).  This module defines an
eBPF-style ISA: eleven 64-bit registers ``r0``–``r10`` (``r0`` return
value, ``r1``–``r5`` arguments/scratch, ``r6``–``r9`` callee-saved
scratch, ``r10`` read-only frame pointer), a 512-byte stack, two-operand
ALU ops, conditional jumps, byte/half/word/dword loads and stores, helper
calls and ``exit``.

Like the paper's monitor, the interpreter owns one extra register that
bytecode cannot name (the bounds register used for memory monitoring) —
see :mod:`repro.vm.interpreter`.

Instructions serialize to a fixed 16-byte wire format so plugins can be
hashed, exchanged and measured.

What each ALU and conditional-jump operation *means* is written once, in
:data:`SEMANTICS`: the interpreter, the JIT, the abstract interpreter,
the termination checker, the assembler and the compiler all read it.
"""

from __future__ import annotations

import enum
import operator
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from . import domain
from .domain import Interval

NUM_REGISTERS = 11
FP_REGISTER = 10  # read-only frame pointer
STACK_SIZE = 512
WORD_MASK = (1 << 64) - 1


class Op(enum.IntEnum):
    """Opcodes. ALU ops ending in _IMM take an immediate source."""

    # ALU (register, register)
    ADD = 0x01
    SUB = 0x02
    MUL = 0x03
    DIV = 0x04
    MOD = 0x05
    AND = 0x06
    OR = 0x07
    XOR = 0x08
    LSH = 0x09
    RSH = 0x0A
    ARSH = 0x0B
    MOV = 0x0C
    NEG = 0x0D
    # ALU (register, immediate)
    ADD_IMM = 0x11
    SUB_IMM = 0x12
    MUL_IMM = 0x13
    DIV_IMM = 0x14
    MOD_IMM = 0x15
    AND_IMM = 0x16
    OR_IMM = 0x17
    XOR_IMM = 0x18
    LSH_IMM = 0x19
    RSH_IMM = 0x1A
    ARSH_IMM = 0x1B
    MOV_IMM = 0x1C
    # Jumps: target = pc + 1 + offset
    JA = 0x20
    JEQ = 0x21
    JNE = 0x22
    JGT = 0x23
    JGE = 0x24
    JLT = 0x25
    JLE = 0x26
    JSGT = 0x27
    JSLT = 0x28
    JSET = 0x29
    JEQ_IMM = 0x31
    JNE_IMM = 0x32
    JGT_IMM = 0x33
    JGE_IMM = 0x34
    JLT_IMM = 0x35
    JLE_IMM = 0x36
    JSGT_IMM = 0x37
    JSLT_IMM = 0x38
    JSET_IMM = 0x39
    # Memory: LDX dst = *(size*)(src + offset); STX *(size*)(dst + offset) = src
    LDXB = 0x40
    LDXH = 0x41
    LDXW = 0x42
    LDXDW = 0x43
    STXB = 0x44
    STXH = 0x45
    STXW = 0x46
    STXDW = 0x47
    STB = 0x48   # store immediate
    STH = 0x49
    STW = 0x4A
    STDW = 0x4B
    # Control
    CALL = 0x50  # imm = helper id
    EXIT = 0x51
    LDDW = 0x52  # dst = 64-bit immediate


def to_signed(value: int) -> int:
    """A 64-bit word read as a two's-complement integer."""
    value &= WORD_MASK
    return value - (1 << 64) if value >= 1 << 63 else value


@dataclass(frozen=True)
class Semantics:
    """One ALU or conditional-jump operation, in both of its forms: the
    second operand is register ``src`` for ``reg`` and the immediate for
    ``imm``.

    * ``concrete(dst, src)`` — the reference meaning on 64-bit words: the
      new ``dst`` of an ALU op, whether a jump is taken.  A ``fault`` row
      is never called with a zero ``src``: the caller raises ``fault``.
    * ``interval(dst, src)`` — its sound abstraction on unsigned
      intervals (:mod:`.domain`); ALU rows only.
    * ``jit`` — the Python the JIT emits.  ALU templates assign ``{d}``
      from ``{d}`` and ``{s}`` (``{k}``: the shift amount ``src & 63``);
      jump templates test ``{a}`` against ``{b}`` (``{sa}`` / ``{sb}``:
      read as signed).  Written apart from ``concrete`` on purpose: the
      differential tests check one against the other.
    * ``negation`` / ``swap`` — jumps only: the register-form op taken
      exactly when this one is not (``None`` when the ISA has none), and
      the one with its operands exchanged.
    """

    reg: Op
    imm: Op
    concrete: Callable[[int, int], int]
    jit: str
    writes_dst: bool
    interval: Optional[Callable[[Interval, Interval], Interval]] = None
    fault: Optional[str] = None
    negation: Optional[Op] = None
    swap: Optional[Op] = None

    @property
    def mnemonic(self) -> str:
        return self.reg.name.lower()

    @property
    def may_fault(self) -> bool:
        """A zero ``src`` faults (division and modulo)."""
        return self.fault is not None

    @property
    def pure(self) -> bool:
        """Writes a register and nothing else, and cannot fault."""
        return self.writes_dst and self.fault is None


def _alu(reg: Op, imm: Op, concrete: Callable[[int, int], int],
         interval: Callable[[Interval, Interval], Interval], jit: str,
         fault: Optional[str] = None) -> Semantics:
    return Semantics(reg, imm, concrete, jit, True, interval, fault)


def _jump(reg: Op, imm: Op, concrete: Callable[[int, int], int], jit: str,
          negation: Optional[Op], swap: Op) -> Semantics:
    return Semantics(reg, imm, concrete, jit, False, negation=negation,
                     swap=swap)


_ROWS = (
    _alu(Op.ADD, Op.ADD_IMM, lambda d, s: (d + s) & WORD_MASK, domain.add,
         "{d} = ({d} + {s}) & {mask}"),
    _alu(Op.SUB, Op.SUB_IMM, lambda d, s: (d - s) & WORD_MASK, domain.sub,
         "{d} = ({d} - {s}) & {mask}"),
    _alu(Op.MUL, Op.MUL_IMM, lambda d, s: (d * s) & WORD_MASK, domain.mul,
         "{d} = ({d} * {s}) & {mask}"),
    _alu(Op.DIV, Op.DIV_IMM, operator.floordiv, domain.div,
         "{d} = {d} // {s}", fault="division by zero"),
    _alu(Op.MOD, Op.MOD_IMM, operator.mod, domain.mod,
         "{d} = {d} % {s}", fault="modulo by zero"),
    _alu(Op.AND, Op.AND_IMM, operator.and_, domain.and_, "{d} = {d} & {s}"),
    _alu(Op.OR, Op.OR_IMM, operator.or_, domain.or_, "{d} = {d} | {s}"),
    _alu(Op.XOR, Op.XOR_IMM, operator.xor, domain.xor, "{d} = {d} ^ {s}"),
    _alu(Op.LSH, Op.LSH_IMM, lambda d, s: (d << (s & 63)) & WORD_MASK,
         domain.lsh, "{d} = ({d} << {k}) & {mask}"),
    _alu(Op.RSH, Op.RSH_IMM, lambda d, s: d >> (s & 63), domain.rsh,
         "{d} = {d} >> {k}"),
    _alu(Op.ARSH, Op.ARSH_IMM,
         lambda d, s: (to_signed(d) >> (s & 63)) & WORD_MASK, domain.arsh,
         "{d} = ((({d} - {two64}) >> {k}) & {mask}) if {d} >= {sign} "
         "else ({d} >> {k})"),
    _alu(Op.MOV, Op.MOV_IMM, lambda _d, s: s, domain.mov, "{d} = {s}"),
    _jump(Op.JEQ, Op.JEQ_IMM, operator.eq, "{a} == {b}", Op.JNE, Op.JEQ),
    _jump(Op.JNE, Op.JNE_IMM, operator.ne, "{a} != {b}", Op.JEQ, Op.JNE),
    _jump(Op.JGT, Op.JGT_IMM, operator.gt, "{a} > {b}", Op.JLE, Op.JLT),
    _jump(Op.JGE, Op.JGE_IMM, operator.ge, "{a} >= {b}", Op.JLT, Op.JLE),
    _jump(Op.JLT, Op.JLT_IMM, operator.lt, "{a} < {b}", Op.JGE, Op.JGT),
    _jump(Op.JLE, Op.JLE_IMM, operator.le, "{a} <= {b}", Op.JGT, Op.JGE),
    _jump(Op.JSGT, Op.JSGT_IMM, lambda a, b: to_signed(a) > to_signed(b),
          "{sa} > {sb}", None, Op.JSLT),
    _jump(Op.JSLT, Op.JSLT_IMM, lambda a, b: to_signed(a) < to_signed(b),
          "{sa} < {sb}", None, Op.JSGT),
    _jump(Op.JSET, Op.JSET_IMM, lambda a, b: a & b != 0, "{a} & {b}",
          None, Op.JSET),
)

#: The semantics of every ALU and conditional-jump opcode, keyed by both
#: forms.  ``NEG`` (the one unary ALU op), ``LDDW``, ``JA``, ``EXIT``,
#: ``CALL`` and the memory ops have no row.
SEMANTICS: Dict[Op, Semantics] = {
    op: row for row in _ROWS for op in (row.reg, row.imm)}

ALU_REG_OPS = {row.reg for row in _ROWS if row.writes_dst}
ALU_IMM_OPS = {row.imm for row in _ROWS if row.writes_dst}
JMP_REG_OPS = {row.reg for row in _ROWS if not row.writes_dst}
JMP_IMM_OPS = {row.imm for row in _ROWS if not row.writes_dst}
JUMP_OPS = JMP_REG_OPS | JMP_IMM_OPS | {Op.JA}
LOAD_OPS = {Op.LDXB, Op.LDXH, Op.LDXW, Op.LDXDW}
STORE_REG_OPS = {Op.STXB, Op.STXH, Op.STXW, Op.STXDW}
STORE_IMM_OPS = {Op.STB, Op.STH, Op.STW, Op.STDW}
MEM_OPS = LOAD_OPS | STORE_REG_OPS | STORE_IMM_OPS

MEM_SIZES = {
    Op.LDXB: 1, Op.LDXH: 2, Op.LDXW: 4, Op.LDXDW: 8,
    Op.STXB: 1, Op.STXH: 2, Op.STXW: 4, Op.STXDW: 8,
    Op.STB: 1, Op.STH: 2, Op.STW: 4, Op.STDW: 8,
}

#: Ops that write their dst register.
DST_WRITE_OPS = ALU_REG_OPS | ALU_IMM_OPS | {Op.NEG, Op.LDDW} | LOAD_OPS

_STRUCT = struct.Struct("<BBBbiq")  # opcode, dst, src, pad, offset, imm


@dataclass(frozen=True)
class Instruction:
    """One PRE instruction."""

    opcode: Op
    dst: int = 0
    src: int = 0
    offset: int = 0
    imm: int = 0

    def encode(self) -> bytes:
        imm = self.imm
        if imm >= 1 << 63:
            imm -= 1 << 64
        return _STRUCT.pack(int(self.opcode), self.dst, self.src, 0,
                            self.offset, imm)

    @classmethod
    def decode(cls, data: bytes) -> "Instruction":
        opcode, dst, src, _pad, offset, imm = _STRUCT.unpack(data)
        return cls(Op(opcode), dst, src, offset, imm)

    def __repr__(self) -> str:
        return (f"Instruction({self.opcode.name}, dst={self.dst}, "
                f"src={self.src}, off={self.offset}, imm={self.imm})")


def encode_program(instructions: Iterable[Instruction]) -> bytes:
    """Serialize a program to bytecode."""
    return b"".join(ins.encode() for ins in instructions)


def decode_program(bytecode: bytes) -> List[Instruction]:
    """Parse bytecode back to instructions; raises on malformed input."""
    if len(bytecode) % _STRUCT.size:
        raise ValueError("bytecode length not a multiple of instruction size")
    return [
        Instruction.decode(bytecode[i:i + _STRUCT.size])
        for i in range(0, len(bytecode), _STRUCT.size)
    ]


INSTRUCTION_SIZE = _STRUCT.size
