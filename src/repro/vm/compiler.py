"""Compile a restricted subset of Python to PRE bytecode.

The paper's pluglets are written in C and compiled to eBPF by Clang
("This allows us to abstract the development of pluglets from eBPF
bytecode and propose a convenient C API for writing pluglets", §2.1).
Here, pluglets are written as restricted Python functions and compiled to
the PRE ISA by this module.

Supported subset — everything is a 64-bit unsigned integer:

* ``def f(a, b, ...)`` with at most five parameters;
* assignments and augmented assignments to local names;
* ``if``/``elif``/``else``, ``while``, ``break``, ``continue``, ``pass``;
* ``return expr`` (or bare ``return`` for 0);
* integer constants, ``True``/``False``;
* binary ``+ - * // % & | ^ << >>``, unary ``-``;
* comparisons and ``and``/``or``/``not`` in conditions;
* calls to declared *helper functions* with at most five arguments;
* memory dereference through the pseudo-arrays ``mem8``/``mem16``/
  ``mem32``/``mem64`` — ``x = mem64[addr]`` and ``mem8[addr] = v`` compile
  to real load/store instructions, so every access runs under the PRE
  memory monitor.

Anything else raises :class:`CompileError` — the same posture as the
paper's verifier: reject what cannot be proven safe.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Optional, Union

from .isa import FP_REGISTER, SEMANTICS, Instruction, Op

MAX_PARAMS = 5
SLOT_SIZE = 8


class CompileError(Exception):
    """The source uses constructs outside the supported subset."""


class _Label:
    """A symbolic jump target resolved in the fixup pass.

    Names are made unique by the owning compiler (per-compilation counter),
    so long-lived processes compiling many pluglets don't grow a global."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"<label {self.name}>"


_MEM_LOAD = {"mem8": Op.LDXB, "mem16": Op.LDXH, "mem32": Op.LDXW, "mem64": Op.LDXDW}
_MEM_STORE = {"mem8": Op.STXB, "mem16": Op.STXH, "mem32": Op.STXW, "mem64": Op.STXDW}

_BINOPS = {
    ast.Add: Op.ADD,
    ast.Sub: Op.SUB,
    ast.Mult: Op.MUL,
    ast.FloorDiv: Op.DIV,
    ast.Mod: Op.MOD,
    ast.BitAnd: Op.AND,
    ast.BitOr: Op.OR,
    ast.BitXor: Op.XOR,
    ast.LShift: Op.LSH,
    ast.RShift: Op.RSH,
}

# Unsigned comparison ops (64-bit unsigned semantics throughout).
_CMP = {
    ast.Eq: Op.JEQ,
    ast.NotEq: Op.JNE,
    ast.Gt: Op.JGT,
    ast.GtE: Op.JGE,
    ast.Lt: Op.JLT,
    ast.LtE: Op.JLE,
}


class PlugletCompiler:
    """Compiles one function to a list of :class:`Instruction`."""

    def __init__(self, helpers: Optional[dict] = None):
        self.helpers = helpers or {}

    # ------------------------------------------------------------------

    def compile(self, source_or_func: Union[str, Callable]) -> list:
        if callable(source_or_func):
            source = textwrap.dedent(inspect.getsource(source_or_func))
        else:
            source = textwrap.dedent(source_or_func)
        tree = ast.parse(source)
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        if len(funcs) != 1:
            raise CompileError("source must contain exactly one function")
        return self._compile_function(funcs[0])

    def _compile_function(self, func: ast.FunctionDef) -> list:
        params = [a.arg for a in func.args.args]
        if len(params) > MAX_PARAMS:
            raise CompileError(f"at most {MAX_PARAMS} parameters supported")
        if func.args.vararg or func.args.kwarg or func.args.kwonlyargs:
            raise CompileError("only plain positional parameters supported")

        self._code: list = []
        self._locals: dict[str, int] = {}
        self._temp_base = 0
        self._loop_stack: list[tuple[_Label, _Label]] = []
        self._label_count = 0
        for name in params:
            self._slot(name)
        self._collect_locals(func.body)
        # Prologue: spill parameters (r1..r5) into their slots.
        for i, name in enumerate(params):
            self._emit(Op.STXDW, dst=FP_REGISTER,
                       offset=self._locals[name], src=i + 1)
        for stmt in func.body:
            self._stmt(stmt)
        # Implicit `return 0`.
        self._emit(Op.MOV_IMM, dst=0, imm=0)
        self._emit(Op.EXIT)
        return self._fixup()

    # ------------------------------------------------------------------

    def _collect_locals(self, body: list) -> None:
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        self._slot(tgt.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                self._slot(node.target.id)

    def _slot(self, name: str) -> int:
        if name not in self._locals:
            index = len(self._locals)
            self._locals[name] = -SLOT_SIZE * (index + 1)
            self._temp_base = -SLOT_SIZE * (len(self._locals) + 1)
        return self._locals[name]

    def _temp_slot(self, depth: int) -> int:
        offset = -SLOT_SIZE * (len(self._locals) + 1 + depth)
        if offset < -496:  # leave headroom inside the 512-byte stack
            raise CompileError("expression too deeply nested")
        return offset

    def _emit(self, opcode: Op, dst: int = 0, src: int = 0,
              offset=0, imm: int = 0) -> None:
        self._code.append([opcode, dst, src, offset, imm])

    def _new_label(self, name: str) -> _Label:
        self._label_count += 1
        return _Label(f"{name}_{self._label_count}")

    def _mark(self, label: _Label) -> None:
        self._code.append(label)

    def _fixup(self) -> list:
        positions: dict[str, int] = {}
        pc = 0
        for item in self._code:
            if isinstance(item, _Label):
                positions[item.name] = pc
            else:
                pc += 1
        out: list[Instruction] = []
        pc = 0
        for item in self._code:
            if isinstance(item, _Label):
                continue
            opcode, dst, src, offset, imm = item
            if isinstance(offset, _Label):
                offset = positions[offset.name] - pc - 1
            out.append(Instruction(opcode, dst=dst, src=src,
                                   offset=offset, imm=imm))
            pc += 1
        return out

    # --- statements ----------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Return):
            if node.value is not None:
                self._expr(node.value, 0)
            else:
                self._emit(Op.MOV_IMM, dst=0, imm=0)
            self._emit(Op.EXIT)
        elif isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise CompileError("only single-target assignment supported")
            target = node.targets[0]
            if isinstance(target, ast.Subscript):
                self._store_subscript(target, node.value)
                return
            if not isinstance(target, ast.Name):
                raise CompileError("only name or memN[...] assignment supported")
            self._expr(node.value, 0)
            self._emit(Op.STXDW, dst=FP_REGISTER,
                       offset=self._slot(target.id), src=0)
        elif isinstance(node, ast.AugAssign):
            if not isinstance(node.target, ast.Name):
                raise CompileError("augmented assignment to names only")
            if type(node.op) not in _BINOPS:
                raise CompileError(
                    f"unsupported operator {type(node.op).__name__}"
                )
            slot = self._slot(node.target.id)
            self._expr(node.value, 0)
            self._emit(Op.LDXDW, dst=1, src=FP_REGISTER, offset=slot)
            self._emit(_BINOPS[type(node.op)], dst=1, src=0)
            self._emit(Op.STXDW, dst=FP_REGISTER, offset=slot, src=1)
        elif isinstance(node, ast.If):
            else_label, end_label = self._new_label("else"), self._new_label("endif")
            self._cond(node.test, false_target=else_label)
            for s in node.body:
                self._stmt(s)
            self._emit(Op.JA, offset=end_label)
            self._mark(else_label)
            for s in node.orelse:
                self._stmt(s)
            self._mark(end_label)
        elif isinstance(node, ast.While):
            if node.orelse:
                raise CompileError("while/else not supported")
            top, end = self._new_label("loop"), self._new_label("endloop")
            self._mark(top)
            self._cond(node.test, false_target=end)
            self._loop_stack.append((top, end))
            for s in node.body:
                self._stmt(s)
            self._loop_stack.pop()
            self._emit(Op.JA, offset=top)
            self._mark(end)
        elif isinstance(node, ast.Break):
            if not self._loop_stack:
                raise CompileError("break outside loop")
            self._emit(Op.JA, offset=self._loop_stack[-1][1])
        elif isinstance(node, ast.Continue):
            if not self._loop_stack:
                raise CompileError("continue outside loop")
            self._emit(Op.JA, offset=self._loop_stack[-1][0])
        elif isinstance(node, ast.Expr):
            self._expr(node.value, 0)  # e.g. a bare helper call
        elif isinstance(node, ast.Pass):
            pass
        else:
            raise CompileError(f"unsupported statement {type(node).__name__}")

    # --- conditions ------------------------------------------------------

    def _cond(self, test: ast.expr, false_target: _Label) -> None:
        """Emit code that falls through when ``test`` is true and jumps to
        ``false_target`` otherwise."""
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And):
                for value in test.values:
                    self._cond(value, false_target)
            else:  # Or: jump to body if any true
                true_target = self._new_label("or_true")
                for value in test.values[:-1]:
                    self._cond_true(value, true_target)
                self._cond(test.values[-1], false_target)
                self._mark(true_target)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._cond_true(test.operand, false_target)
            return
        if isinstance(test, ast.Compare):
            self._compare(test, false_target, negate=True)
            return
        # Bare expression: false iff zero.
        self._expr(test, 0)
        self._emit(Op.JEQ_IMM, dst=0, imm=0, offset=false_target)

    def _cond_true(self, test: ast.expr, true_target: _Label) -> None:
        """Jump to ``true_target`` when ``test`` is true."""
        if isinstance(test, ast.Compare):
            self._compare(test, true_target, negate=False)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._cond(test.operand, true_target)
            return
        self._expr(test, 0)
        self._emit(Op.JNE_IMM, dst=0, imm=0, offset=true_target)

    def _compare(self, test: ast.Compare, target: _Label,
                 negate: bool) -> None:
        """Jump to ``target`` when the comparison holds (``negate``:
        when it does not)."""
        if len(test.ops) != 1 or len(test.comparators) != 1:
            raise CompileError("chained comparisons not supported")
        op_type = type(test.ops[0])
        if op_type not in _CMP:
            raise CompileError(f"unsupported comparison {op_type.__name__}")
        jump = _CMP[op_type]
        if negate:
            jump = SEMANTICS[jump].negation
        # left -> temp, right -> r0, left -> r1, compare r1 ? r0
        self._expr(test.left, 0)
        tmp = self._temp_slot(0)
        self._emit(Op.STXDW, dst=FP_REGISTER, offset=tmp, src=0)
        self._expr(test.comparators[0], 1)
        self._emit(Op.LDXDW, dst=1, src=FP_REGISTER, offset=tmp)
        self._emit(jump, dst=1, src=0, offset=target)

    # --- expressions ------------------------------------------------------

    def _expr(self, node: ast.expr, depth: int) -> None:
        """Evaluate ``node`` into r0, using temp slots beyond ``depth``."""
        if isinstance(node, ast.Constant):
            if node.value is True or node.value is False:
                self._emit(Op.MOV_IMM, dst=0, imm=int(node.value))
            elif isinstance(node.value, int):
                value = node.value
                if 0 <= value < (1 << 31):
                    self._emit(Op.MOV_IMM, dst=0, imm=value)
                else:
                    self._emit(Op.LDDW, dst=0, imm=value & ((1 << 64) - 1))
            else:
                raise CompileError(
                    f"unsupported constant {node.value!r} (integers only)"
                )
        elif isinstance(node, ast.Name):
            if node.id not in self._locals:
                raise CompileError(f"undefined name {node.id!r}")
            self._emit(Op.LDXDW, dst=0, src=FP_REGISTER,
                       offset=self._locals[node.id])
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise CompileError(
                    f"unsupported operator {type(node.op).__name__}"
                )
            self._expr(node.left, depth)
            tmp = self._temp_slot(depth)
            self._emit(Op.STXDW, dst=FP_REGISTER, offset=tmp, src=0)
            self._expr(node.right, depth + 1)
            self._emit(Op.LDXDW, dst=1, src=FP_REGISTER, offset=tmp)
            self._emit(_BINOPS[type(node.op)], dst=1, src=0)
            self._emit(Op.MOV, dst=0, src=1)
        elif isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                self._expr(node.operand, depth)
                self._emit(Op.NEG, dst=0)
            elif isinstance(node.op, ast.Invert):
                self._expr(node.operand, depth)
                self._emit(Op.XOR_IMM, dst=0, imm=-1)
            else:
                raise CompileError(
                    f"unsupported unary {type(node.op).__name__}"
                )
        elif isinstance(node, ast.Call):
            self._call(node, depth)
        elif isinstance(node, ast.Subscript):
            self._load_subscript(node, depth)
        else:
            raise CompileError(f"unsupported expression {type(node).__name__}")

    def _mem_name(self, node: ast.Subscript, table: dict) -> Op:
        if not isinstance(node.value, ast.Name) or node.value.id not in table:
            raise CompileError(
                "subscripts only on mem8/mem16/mem32/mem64 pseudo-arrays"
            )
        return table[node.value.id]

    def _load_subscript(self, node: ast.Subscript, depth: int) -> None:
        opcode = self._mem_name(node, _MEM_LOAD)
        self._expr(node.slice, depth)
        self._emit(opcode, dst=0, src=0, offset=0)

    def _store_subscript(self, target: ast.Subscript, value: ast.expr) -> None:
        opcode = self._mem_name(target, _MEM_STORE)
        self._expr(value, 0)
        tmp = self._temp_slot(0)
        self._emit(Op.STXDW, dst=FP_REGISTER, offset=tmp, src=0)
        self._expr(target.slice, 1)
        self._emit(Op.MOV, dst=1, src=0)              # r1 = address
        self._emit(Op.LDXDW, dst=0, src=FP_REGISTER, offset=tmp)  # r0 = value
        self._emit(opcode, dst=1, src=0, offset=0)

    def _call(self, node: ast.Call, depth: int) -> None:
        if not isinstance(node.func, ast.Name):
            raise CompileError("only direct helper calls supported")
        name = node.func.id
        if name not in self.helpers:
            raise CompileError(f"unknown helper {name!r}")
        if node.keywords:
            raise CompileError("keyword arguments not supported")
        if len(node.args) > MAX_PARAMS:
            raise CompileError("helpers take at most 5 arguments")
        slots = []
        for i, arg in enumerate(node.args):
            self._expr(arg, depth + i)
            tmp = self._temp_slot(depth + i)
            self._emit(Op.STXDW, dst=FP_REGISTER, offset=tmp, src=0)
            slots.append(tmp)
        for i, tmp in enumerate(slots):
            self._emit(Op.LDXDW, dst=i + 1, src=FP_REGISTER, offset=tmp)
        self._emit(Op.CALL, imm=self.helpers[name])


def compile_pluglet(source_or_func, helpers: Optional[dict] = None) -> list:
    """Convenience wrapper: compile one function with a helper mapping."""
    return PlugletCompiler(helpers).compile(source_or_func)
