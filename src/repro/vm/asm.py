"""A small two-pass assembler and disassembler for the PRE ISA.

Syntax (one instruction per line, ``;`` comments, ``name:`` labels)::

    ; compute r0 = r1 * 2 unless r1 == 0
        mov   r0, 0
        jeq   r1, 0, done
        mov   r0, r1
        add   r0, r1
    done:
        exit

Memory operands are ``[rN+off]`` / ``[rN-off]``.  ``call`` takes either a
numeric helper id or a helper name resolved through the mapping passed to
:func:`assemble`.
"""

from __future__ import annotations

import re
from typing import Optional

from .isa import (
    LOAD_OPS,
    MEM_OPS,
    SEMANTICS,
    STORE_IMM_OPS,
    STORE_REG_OPS,
    Instruction,
    Op,
)


class AssemblyError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):$")
_REG_RE = re.compile(r"^r(\d+)$")
_MEM_RE = re.compile(r"^\[r(\d+)\s*([+-]\s*\d+)?\]$")

# Mnemonics of the semantics table: the second operand picks the REG or
# IMM form.
_ROWS = {row.mnemonic: row for row in SEMANTICS.values()}
_MEM = {op.name.lower(): op for op in MEM_OPS}


def _parse_reg(tok: str, line: int) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise AssemblyError(f"expected register, got {tok!r}", line)
    return int(m.group(1))


def _parse_int(tok: str, line: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AssemblyError(f"expected integer, got {tok!r}", line)


def _parse_mem(tok: str, line: int) -> tuple:
    m = _MEM_RE.match(tok.replace(" ", ""))
    if not m:
        raise AssemblyError(f"expected memory operand, got {tok!r}", line)
    reg = int(m.group(1))
    off = int(m.group(2).replace(" ", "")) if m.group(2) else 0
    return reg, off


def assemble(source: str, helpers: Optional[dict] = None) -> list:
    """Assemble text to a list of :class:`Instruction`."""
    helpers = helpers or {}
    lines = []
    for raw_no, raw in enumerate(source.splitlines(), start=1):
        text = raw.split(";", 1)[0].strip()
        if text:
            lines.append((raw_no, text))

    # Pass 1: collect labels.
    labels: dict[str, int] = {}
    pc = 0
    for line_no, text in lines:
        m = _LABEL_RE.match(text)
        if m:
            name = m.group(1)
            if name in labels:
                raise AssemblyError(f"duplicate label {name!r}", line_no)
            labels[name] = pc
        else:
            pc += 1

    # Pass 2: emit instructions.
    out: list[Instruction] = []
    pc = 0
    for line_no, text in lines:
        if _LABEL_RE.match(text):
            continue
        out.append(_emit(text, pc, labels, helpers, line_no))
        pc += 1
    return out


def _resolve_target(tok: str, pc: int, labels: dict, line: int) -> int:
    if tok in labels:
        return labels[tok] - pc - 1
    if tok.startswith(("+", "-")):
        return _parse_int(tok, line)
    raise AssemblyError(f"unknown label {tok!r}", line)


def _emit(text: str, pc: int, labels: dict, helpers: dict, line: int) -> Instruction:
    parts = text.replace(",", " ").split()
    mnemonic, ops = parts[0].lower(), parts[1:]

    if mnemonic == "exit":
        return Instruction(Op.EXIT)
    if mnemonic == "call":
        (target,) = ops
        if target in helpers:
            return Instruction(Op.CALL, imm=helpers[target])
        return Instruction(Op.CALL, imm=_parse_int(target, line))
    if mnemonic == "neg":
        return Instruction(Op.NEG, dst=_parse_reg(ops[0], line))
    if mnemonic == "lddw":
        return Instruction(Op.LDDW, dst=_parse_reg(ops[0], line),
                           imm=_parse_int(ops[1], line))
    if mnemonic == "ja":
        return Instruction(Op.JA, offset=_resolve_target(ops[0], pc, labels, line))
    if mnemonic in _ROWS:
        row = _ROWS[mnemonic]
        dst = _parse_reg(ops[0], line)
        offset = 0 if row.writes_dst \
            else _resolve_target(ops[2], pc, labels, line)
        if _REG_RE.match(ops[1]):
            return Instruction(row.reg, dst=dst, src=_parse_reg(ops[1], line),
                               offset=offset)
        return Instruction(row.imm, dst=dst, imm=_parse_int(ops[1], line),
                           offset=offset)
    op = _MEM.get(mnemonic)
    if op in LOAD_OPS:
        dst = _parse_reg(ops[0], line)
        src, off = _parse_mem(ops[1], line)
        return Instruction(op, dst=dst, src=src, offset=off)
    if op in STORE_REG_OPS:
        dst, off = _parse_mem(ops[0], line)
        return Instruction(op, dst=dst, src=_parse_reg(ops[1], line),
                           offset=off)
    if op in STORE_IMM_OPS:
        dst, off = _parse_mem(ops[0], line)
        return Instruction(op, dst=dst, imm=_parse_int(ops[1], line),
                           offset=off)
    raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line)


def disassemble(instructions: list) -> str:
    """Render instructions back to assembly text (without labels)."""
    out = []
    for ins in instructions:
        op = ins.opcode
        row = SEMANTICS.get(op)
        if row is not None:
            second = f"r{ins.src}" if op is row.reg else f"{ins.imm}"
            target = "" if row.writes_dst else f", {ins.offset:+d}"
            out.append(f"{row.mnemonic} r{ins.dst}, {second}{target}")
        elif op is Op.EXIT:
            out.append("exit")
        elif op is Op.CALL:
            out.append(f"call {ins.imm}")
        elif op is Op.NEG:
            out.append(f"neg r{ins.dst}")
        elif op is Op.LDDW:
            out.append(f"lddw r{ins.dst}, {ins.imm}")
        elif op is Op.JA:
            out.append(f"ja {ins.offset:+d}")
        elif op in LOAD_OPS:
            out.append(f"{op.name.lower()} r{ins.dst}, [r{ins.src}{ins.offset:+d}]")
        elif op in STORE_REG_OPS:
            out.append(f"{op.name.lower()} [r{ins.dst}{ins.offset:+d}], r{ins.src}")
        elif op in STORE_IMM_OPS:
            out.append(f"{op.name.lower()} [r{ins.dst}{ins.offset:+d}], {ins.imm}")
        else:
            out.append(f"; unknown {ins!r}")
    return "\n".join(out)
