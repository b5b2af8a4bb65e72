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

Code generation
===============

One walk over the AST emits register code, the way Clang's eBPF back end
would:

* **Homes.**  Before the walk every local gets a home.  A parameter that
  no helper call needs its argument register for stays where it arrives
  (``r1``-``r5``); the four most-used of the other locals (uses inside a
  loop weigh more) live in the callee-saved ``r6``-``r9``, and the rest
  in 8-byte frame slots.  Helpers write only ``r0``, so a local in a
  register keeps its value — and the analyzer its interval — across a
  call.  A register local that may be read before it is assigned is
  zeroed on entry, as its frame slot would have been.
* **Temporaries.**  Expressions evaluate into ``r0``-``r5`` (and any of
  ``r6``-``r9`` no local took).  A temporary still needed when a helper
  call sets up its arguments moves out of the registers the call writes;
  when no register is free the oldest temporary spills to a frame slot.
* **Immediates.**  A constant operand that fits 32 signed bits uses the
  ``_IMM`` form of its ALU op, jump or store, and ``mem64[p + 8]`` is one
  load with displacement 8.
* **Constant folding.**  Constant subexpressions are computed at compile
  time through ``SEMANTICS[op].concrete``, the ISA's one definition of
  each operation; a constant zero divisor is left to fault at run time.
* **No dead code.**  A last pass keeps only the instructions reachable
  from the entry, so nothing follows a ``return``: neither the jump over
  an ``else`` after a branch that returned nor the implicit ``return 0``.

The frame stays private: ``r10`` is only ever the base of a constant-
offset load or store, so the JIT can promote every slot to a local.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Union

from .isa import (
    FP_REGISTER,
    SEMANTICS,
    WORD_MASK,
    Instruction,
    Op,
    encode_program,
    to_signed,
)

MAX_PARAMS = 5
SLOT_SIZE = 8
#: Callee-saved registers: the homes of the most-used locals.
LOCAL_REGISTERS = (6, 7, 8, 9)
#: r0 and the argument registers, the first choice for temporaries.
TEMP_REGISTERS = (0, 1, 2, 3, 4, 5)
#: Parameters kept in their argument registers leave at least this many
#: of :data:`TEMP_REGISTERS` to temporaries.
MIN_TEMPS = 3
#: A use inside a loop counts this many times per nesting level when
#: ranking locals for registers.
LOOP_WEIGHT = 8
#: The deepest frame offset the compiler uses (headroom inside the
#: 512-byte stack).
FRAME_LIMIT = -496

_IMM_MIN, _IMM_MAX = -(1 << 31), (1 << 31) - 1


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


class _Const:
    """An operand known at compile time."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value & WORD_MASK


class _Home:
    """Where a value lives: register ``reg``, else frame slot ``slot``.
    A local's home is read in place; a :class:`_Temp` is owned by the
    expression that made it."""

    __slots__ = ("reg", "slot")

    def __init__(self, reg: Optional[int] = None, slot: int = 0):
        self.reg = reg
        self.slot = slot


class _Temp(_Home):
    """A temporary: freed once consumed, may be moved or spilled."""

    __slots__ = ()


_Operand = Union[_Const, _Home]

_MEM_LOAD = {"mem8": Op.LDXB, "mem16": Op.LDXH, "mem32": Op.LDXW, "mem64": Op.LDXDW}
_MEM_STORE = {"mem8": Op.STXB, "mem16": Op.STXH, "mem32": Op.STXW, "mem64": Op.STXDW}
_STORE_IMM = {Op.STXB: Op.STB, Op.STXH: Op.STH, Op.STXW: Op.STW,
              Op.STXDW: Op.STDW}

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
_COMMUTATIVE = {Op.ADD, Op.MUL, Op.AND, Op.OR, Op.XOR}
_SHIFTS = {Op.LSH, Op.RSH}

# Unsigned comparison ops (64-bit unsigned semantics throughout).
_CMP = {
    ast.Eq: Op.JEQ,
    ast.NotEq: Op.JNE,
    ast.Gt: Op.JGT,
    ast.GtE: Op.JGE,
    ast.Lt: Op.JLT,
    ast.LtE: Op.JLE,
}


def _imm32(value: int) -> Optional[int]:
    """``value`` as a signed 32-bit immediate, None when it does not fit."""
    signed = to_signed(value)
    return signed if _IMM_MIN <= signed <= _IMM_MAX else None


class _Scan:
    """One pass over a function body ahead of code generation: each
    name's uses (weighted by loop depth), the locals, the argument names
    of every helper call, the names some path may read before assigning
    them (in order), and the assignments whose value reads their own
    target.  Statements after a ``return`` still count uses — they are
    compiled, then dropped as dead — but read nothing unassigned."""

    def __init__(self, body: list, params: List[str]):
        self.uses: Dict[str, int] = dict.fromkeys(params, 0)
        self.locals: Dict[str, None] = dict.fromkeys(params)
        #: Per helper call, each argument's name (None: not a name).
        self.calls: List[list] = []
        self.early: Dict[str, None] = {}
        #: ``id`` of every ``x = e`` whose ``e`` reads ``x``.
        self.self_reading: set = set()
        self._block(body, frozenset(params), 1)

    def _block(self, stmts: list, state: Optional[frozenset],
               weight: int) -> Optional[frozenset]:
        """``state``: the locals assigned on every path here, None where
        no path reaches."""
        for stmt in stmts:
            state = self._stmt(stmt, state, weight)
        return state

    def _stmt(self, node: ast.stmt, state: Optional[frozenset],
              weight: int) -> Optional[frozenset]:
        kind = type(node)
        if kind is ast.Assign:
            names: list = []
            self._expr(node.value, state, weight, names)
            for target in node.targets:
                if type(target) is ast.Name:
                    self._store(target.id, weight)
                    if target.id in names:
                        self.self_reading.add(id(node))
                    if state is not None:
                        state = state | {target.id}
                else:
                    self._expr(target, state, weight)
            return state
        if kind is ast.AugAssign:
            self._expr(node.value, state, weight)
            self._expr(node.target, state, weight)
            if type(node.target) is ast.Name:
                self.locals.setdefault(node.target.id)
                if state is not None:
                    state = state | {node.target.id}
            return state
        if kind is ast.If:
            self._expr(node.test, state, weight)
            body = self._block(node.body, state, weight)
            orelse = self._block(node.orelse, state, weight)
            if body is None or orelse is None:
                return orelse if body is None else body
            return body & orelse
        if kind is ast.While:
            weight *= LOOP_WEIGHT
            self._expr(node.test, state, weight)
            self._block(node.body, state, weight)
            return state
        if kind is ast.Return or kind is ast.Break or kind is ast.Continue:
            if kind is ast.Return and node.value is not None:
                self._expr(node.value, state, weight)
            return None
        for child in ast.iter_child_nodes(node):
            self._expr(child, state, weight)
        return state

    def _store(self, name: str, weight: int) -> None:
        self.locals.setdefault(name)
        self.uses[name] = self.uses.get(name, 0) + weight

    def _expr(self, node: ast.AST, state: Optional[frozenset], weight: int,
              names: Optional[list] = None) -> None:
        stack = [node]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is ast.Name:
                name = node.id
                self.uses[name] = self.uses.get(name, 0) + weight
                if state is not None and name not in state:
                    self.early.setdefault(name)
                if names is not None:
                    names.append(name)
            elif kind is ast.BinOp:
                stack.append(node.right)
                stack.append(node.left)
            elif kind is ast.Call:
                self.calls.append([a.id if type(a) is ast.Name else None
                                   for a in node.args])
                stack.extend(reversed(node.args))
            elif kind is ast.Subscript:
                stack.append(node.slice)
            elif kind is not ast.Constant:
                stack.extend(ast.iter_child_nodes(node))


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
        self._loop_stack: list[tuple[_Label, _Label]] = []
        self._label_count = 0
        self._live: List[_Temp] = []
        self._free_slots: List[int] = []
        self._plan_homes(func.body, params)
        for stmt in func.body:
            self._stmt(stmt)
        # Implicit `return 0` (dropped by the fixup when unreachable).
        self._emit(Op.MOV_IMM, dst=0, imm=0)
        self._emit(Op.EXIT)
        return self._fixup()

    # --- homes -----------------------------------------------------------

    def _plan_homes(self, body: list, params: List[str]) -> None:
        """Give every local a home and emit the prologue that puts the
        parameters and zero-initialized locals there."""
        scan = _Scan(body, params)
        self._self_reading = scan.self_reading
        ranked = sorted((name for name in scan.locals if scan.uses[name]),
                        key=lambda name: -scan.uses[name])
        # A parameter stays in its argument register when every helper
        # call that writes that register passes the parameter itself.
        in_place = [
            name for name in ranked if name in params
            and all(len(args) <= params.index(name)
                    or args[params.index(name)] == name
                    for args in scan.calls)
        ][:len(TEMP_REGISTERS) - MIN_TEMPS]
        self._homes: Dict[str, _Home] = {
            name: _Home(reg=params.index(name) + 1) for name in in_place}
        free_regs = list(LOCAL_REGISTERS)
        self._next_slot = 0
        for name in ranked:
            if name in self._homes:
                continue
            if free_regs:
                self._homes[name] = _Home(reg=free_regs.pop(0))
            else:
                self._homes[name] = _Home(slot=self._new_slot())
        #: Registers temporaries may use, in order of preference.
        self._pool = [r for r in TEMP_REGISTERS
                      if r not in (h.reg for h in self._homes.values())]
        self._pool += free_regs

        for i, name in enumerate(params):
            home = self._homes.get(name)
            if home is not None and home.reg != i + 1:
                self._load_into_home(home, _Home(reg=i + 1))
        for name in scan.early:
            home = self._homes.get(name)
            if home is not None and home.reg is not None:
                self._emit(Op.MOV_IMM, dst=home.reg, imm=0)

    def _new_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        self._next_slot -= SLOT_SIZE
        if self._next_slot < FRAME_LIMIT:
            raise CompileError("expression too deeply nested")
        return self._next_slot

    # --- temporaries -------------------------------------------------------

    def _busy(self) -> set:
        return {t.reg for t in self._live if t.reg is not None}

    def _alloc(self, want: Optional[int] = None,
               keep: Sequence[_Home] = ()) -> int:
        """A free temporary register — ``want`` when it is one — spilling
        the oldest temporary not in ``keep`` when none is free."""
        busy = self._busy()
        if want in self._pool and want not in busy:
            return want
        for reg in self._pool:
            if reg not in busy:
                return reg
        for temp in self._live:
            if temp.reg is not None and all(temp is not k for k in keep):
                reg = temp.reg
                self._spill(temp)
                return reg
        raise CompileError("expression too complex")  # pragma: no cover

    def _new_temp(self, want: Optional[int] = None,
                  keep: Sequence[_Home] = ()) -> _Temp:
        temp = _Temp(reg=self._alloc(want, keep))
        self._live.append(temp)
        return temp

    def _spill(self, temp: _Temp) -> None:
        slot = self._new_slot()
        self._emit(Op.STXDW, dst=FP_REGISTER, offset=slot, src=temp.reg)
        temp.reg, temp.slot = None, slot

    def _free(self, operand: _Operand) -> None:
        if isinstance(operand, _Temp):
            self._live = [t for t in self._live if t is not operand]
            if operand.reg is None:
                self._free_slots.append(operand.slot)

    def _own(self, operand: _Operand, want: Optional[int] = None,
             keep: Sequence[_Home] = ()) -> _Temp:
        """``operand`` as a temporary in a register, free to overwrite."""
        if isinstance(operand, _Temp):
            if operand.reg is None:
                reg = self._alloc(want, keep)
                self._emit(Op.LDXDW, dst=reg, src=FP_REGISTER,
                           offset=operand.slot)
                self._free_slots.append(operand.slot)
                operand.reg = reg
            return operand
        temp = self._new_temp(want, keep)
        self._load_into(temp.reg, operand)
        return temp

    def _in_reg(self, operand: _Operand,
                keep: Sequence[_Home] = ()) -> _Home:
        """``operand`` readable from a register (a local's own, if it
        has one); free the result once read."""
        if isinstance(operand, _Home) and operand.reg is not None:
            return operand
        return self._own(operand, keep=keep)

    def _load_into(self, reg: int, operand: _Operand) -> None:
        if isinstance(operand, _Const):
            value = operand.value
            if value < (1 << 31):
                self._emit(Op.MOV_IMM, dst=reg, imm=value)
            else:
                self._emit(Op.LDDW, dst=reg, imm=value)
        elif operand.reg is None:
            self._emit(Op.LDXDW, dst=reg, src=FP_REGISTER,
                       offset=operand.slot)
        elif operand.reg != reg:
            self._emit(Op.MOV, dst=reg, src=operand.reg)

    def _load_into_home(self, home: _Home, operand: _Operand) -> None:
        if home.reg is not None:
            self._load_into(home.reg, operand)
            return
        imm = _imm32(operand.value) if isinstance(operand, _Const) else None
        if imm is not None:
            self._emit(Op.STDW, dst=FP_REGISTER, offset=home.slot, imm=imm)
            return
        value = self._in_reg(operand)
        self._emit(Op.STXDW, dst=FP_REGISTER, offset=home.slot,
                   src=value.reg)
        self._free(value)

    # --- emission ------------------------------------------------------------

    def _emit(self, opcode: Op, dst: int = 0, src: int = 0,
              offset=0, imm: int = 0) -> None:
        self._code.append([opcode, dst, src, offset, imm])

    def _new_label(self, name: str) -> _Label:
        self._label_count += 1
        return _Label(f"{name}_{self._label_count}")

    def _mark(self, label: _Label) -> None:
        self._code.append(label)

    def _fixup(self) -> list:
        """Resolve labels, keeping only instructions reachable from the
        entry and dropping jumps to the next kept instruction."""
        code: list = []
        at: Dict[str, int] = {}
        for item in self._code:
            if isinstance(item, _Label):
                at[item.name] = len(code)
            else:
                code.append(item)
        targets = [at[item[3].name] if isinstance(item[3], _Label) else None
                   for item in code]
        kept = [False] * len(code)
        work = [0]
        while work:
            pc = work.pop()
            if pc >= len(code) or kept[pc]:
                continue
            kept[pc] = True
            opcode = code[pc][0]
            if targets[pc] is not None:
                work.append(targets[pc])
            if opcode is not Op.EXIT and opcode is not Op.JA:
                work.append(pc + 1)
        # Backwards, so a dropped jump is gone before the ones around it
        # are judged.
        for pc in range(len(code) - 1, -1, -1):
            target = targets[pc]
            if kept[pc] and code[pc][0] is Op.JA and target > pc \
                    and not any(kept[pc + 1:target]):
                kept[pc] = False
        # New index of the first kept instruction at or after each pc.
        index = [0] * (len(code) + 1)
        index[len(code)] = sum(kept)
        for pc in range(len(code) - 1, -1, -1):
            index[pc] = index[pc + 1] - (1 if kept[pc] else 0)
        out: List[Instruction] = []
        for pc, (opcode, dst, src, offset, imm) in enumerate(code):
            if not kept[pc]:
                continue
            if targets[pc] is not None:
                offset = index[targets[pc]] - len(out) - 1
            out.append(Instruction(opcode, dst=dst, src=src,
                                   offset=offset, imm=imm))
        return out

    # --- statements ----------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Return):
            value = _Const(0) if node.value is None \
                else self._expr(node.value, want=0)
            self._load_into(0, value)
            self._free(value)
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
            self._assign(target.id, node.value,
                         reads_self=id(node) in self._self_reading)
        elif isinstance(node, ast.AugAssign):
            if not isinstance(node.target, ast.Name):
                raise CompileError("augmented assignment to names only")
            name = node.target.id
            self._assign(name, ast.BinOp(left=ast.Name(id=name, ctx=ast.Load()),
                                         op=node.op, right=node.value),
                         reads_self=True)
        elif isinstance(node, ast.If):
            if not node.orelse and len(node.body) == 1 and self._loop_stack \
                    and isinstance(node.body[0], (ast.Break, ast.Continue)):
                top, end = self._loop_stack[-1]
                self._cond_true(node.test, end if isinstance(
                    node.body[0], ast.Break) else top)
                return
            else_label, end_label = self._new_label("else"), self._new_label("endif")
            self._cond(node.test, false_target=else_label)
            for s in node.body:
                self._stmt(s)
            if node.orelse:
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
            self._free(self._expr(node.value))  # e.g. a bare helper call
        elif isinstance(node, ast.Pass):
            pass
        else:
            raise CompileError(f"unsupported statement {type(node).__name__}")

    def _assign(self, name: str, value_node: ast.expr,
                reads_self: bool) -> None:
        home = self._homes.get(name)
        if home is None:  # pragma: no cover - every assigned name has a home
            raise CompileError(f"undefined name {name!r}")
        if home.reg is not None and isinstance(value_node, ast.BinOp) \
                and isinstance(value_node.left, ast.Name) \
                and value_node.left.id == name \
                and type(value_node.op) in _BINOPS:
            # x = x <op> e: e is evaluated first, so x can change in place.
            self._free(self._alu(_BINOPS[type(value_node.op)], home,
                                 self._expr(value_node.right), in_place=True))
            return
        if home.reg is not None and not reads_self:
            # x's old value is dead: its register may hold temporaries.
            self._pool.append(home.reg)
            try:
                value = self._expr(value_node, want=home.reg)
            finally:
                self._pool.remove(home.reg)
        else:
            value = self._expr(value_node)
        self._load_into_home(home, value)
        self._free(value)

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
        self._branch(Op.JEQ, self._expr(test), _Const(0), false_target)

    def _cond_true(self, test: ast.expr, true_target: _Label) -> None:
        """Jump to ``true_target`` when ``test`` is true."""
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.Or):
                for value in test.values:
                    self._cond_true(value, true_target)
            else:  # And: all must hold
                false_target = self._new_label("and_false")
                for value in test.values[:-1]:
                    self._cond(value, false_target)
                self._cond_true(test.values[-1], true_target)
                self._mark(false_target)
            return
        if isinstance(test, ast.Compare):
            self._compare(test, true_target, negate=False)
            return
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._cond(test.operand, true_target)
            return
        self._branch(Op.JNE, self._expr(test), _Const(0), true_target)

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
        left = self._expr(test.left)
        self._branch(jump, left, self._expr(test.comparators[0]), target)

    def _branch(self, jump: Op, left: _Operand, right: _Operand,
                target: _Label) -> None:
        """Jump to ``target`` when ``left <jump> right``."""
        row = SEMANTICS[jump]
        if isinstance(left, _Const):
            if isinstance(right, _Const):
                if row.concrete(left.value, right.value):
                    self._emit(Op.JA, offset=target)
                return
            left, right = right, left
            row = SEMANTICS[row.swap]
        a = self._in_reg(left, keep=(right,) if isinstance(right, _Home) else ())
        imm = _imm32(right.value) if isinstance(right, _Const) else None
        if imm is not None:
            self._emit(row.imm, dst=a.reg, imm=imm, offset=target)
        else:
            b = self._in_reg(right, keep=(a,))
            self._emit(row.reg, dst=a.reg, src=b.reg, offset=target)
            self._free(b)
        self._free(a)

    # --- expressions ------------------------------------------------------

    def _expr(self, node: ast.expr, want: Optional[int] = None) -> _Operand:
        """Evaluate ``node``; a result that needs a new register prefers
        ``want``.  Constants and locals come back without code."""
        if isinstance(node, ast.Constant):
            if node.value is True or node.value is False:
                return _Const(int(node.value))
            if isinstance(node.value, int):
                return _Const(node.value)
            raise CompileError(
                f"unsupported constant {node.value!r} (integers only)"
            )
        if isinstance(node, ast.Name):
            home = self._homes.get(node.id)
            if home is None:
                raise CompileError(f"undefined name {node.id!r}")
            return home
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise CompileError(
                    f"unsupported operator {type(node.op).__name__}"
                )
            left = self._expr(node.left, want)
            return self._alu(_BINOPS[type(node.op)], left,
                             self._expr(node.right), want=want)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                operand = self._expr(node.operand, want)
                if isinstance(operand, _Const):
                    return _Const(SEMANTICS[Op.SUB].concrete(0, operand.value))
                temp = self._own(operand, want)
                self._emit(Op.NEG, dst=temp.reg)
                return temp
            if isinstance(node.op, ast.Invert):
                return self._alu(Op.XOR, self._expr(node.operand, want),
                                 _Const(WORD_MASK), want=want)
            raise CompileError(
                f"unsupported unary {type(node.op).__name__}"
            )
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._load_subscript(node, want)
        raise CompileError(f"unsupported expression {type(node).__name__}")

    def _alu(self, opcode: Op, left: _Operand, right: _Operand,
             want: Optional[int] = None, in_place: bool = False) -> _Operand:
        """``left <opcode> right``: folded when both are constants, else
        computed into a temporary (``in_place``: into ``left`` itself)."""
        row = SEMANTICS[opcode]
        if isinstance(left, _Const) and isinstance(right, _Const) \
                and (row.fault is None or right.value):
            return _Const(row.concrete(left.value, right.value))
        if not in_place and opcode in _COMMUTATIVE and (
                isinstance(left, _Const)
                or (isinstance(right, _Temp) and not isinstance(left, _Temp))):
            left, right = right, left
        keep = (right,) if isinstance(right, _Home) else ()
        dst = left if in_place else self._own(left, want, keep)
        imm = None
        if isinstance(right, _Const) and (row.fault is None or right.value) \
                and (opcode not in _SHIFTS or right.value < 64):
            imm = _imm32(right.value)
        if imm is not None:
            self._emit(row.imm, dst=dst.reg, imm=imm)
        else:
            src = self._in_reg(right, keep=(dst,))
            self._emit(row.reg, dst=dst.reg, src=src.reg)
            self._free(src)
        self._free(right)
        return dst

    def _mem_name(self, node: ast.Subscript, table: dict) -> Op:
        if not isinstance(node.value, ast.Name) or node.value.id not in table:
            raise CompileError(
                "subscripts only on mem8/mem16/mem32/mem64 pseudo-arrays"
            )
        return table[node.value.id]

    def _address(self, node: ast.expr,
                 keep: Sequence[_Home] = ()) -> "tuple[_Home, int]":
        """A base register and constant displacement addressing ``node``."""
        rest, disp = _split_displacement(node)
        if rest is None or _imm32(disp) is None:
            rest, disp = node, 0
        base = self._expr(rest)
        return self._in_reg(base, keep), to_signed(disp)

    def _load_subscript(self, node: ast.Subscript,
                        want: Optional[int]) -> _Temp:
        opcode = self._mem_name(node, _MEM_LOAD)
        base, disp = self._address(node.slice)
        dst = base if isinstance(base, _Temp) else self._new_temp(want, (base,))
        self._emit(opcode, dst=dst.reg, src=base.reg, offset=disp)
        return dst

    def _store_subscript(self, target: ast.Subscript, value: ast.expr) -> None:
        opcode = self._mem_name(target, _MEM_STORE)
        operand = self._expr(value)
        keep = (operand,) if isinstance(operand, _Home) else ()
        base, disp = self._address(target.slice, keep)
        imm = _imm32(operand.value) if isinstance(operand, _Const) else None
        if imm is not None:
            self._emit(_STORE_IMM[opcode], dst=base.reg, offset=disp, imm=imm)
        else:
            src = self._in_reg(operand, keep=(base,))
            self._emit(opcode, dst=base.reg, src=src.reg, offset=disp)
            self._free(src)
        self._free(base)

    def _call(self, node: ast.Call) -> _Temp:
        if not isinstance(node.func, ast.Name):
            raise CompileError("only direct helper calls supported")
        name = node.func.id
        if name not in self.helpers:
            raise CompileError(f"unknown helper {name!r}")
        if node.keywords:
            raise CompileError("keyword arguments not supported")
        if len(node.args) > MAX_PARAMS:
            raise CompileError("helpers take at most 5 arguments")
        args = [self._expr(arg, want=i + 1) for i, arg in enumerate(node.args)]
        # The call writes r0 and its argument setup r1..rk: move any other
        # temporary there out of the way first.
        written = set(range(len(args) + 1))
        for temp in list(self._live):
            if temp.reg in written and all(temp is not a for a in args):
                self._relocate(temp, written)
        self._parallel_move({i + 1: a.reg for i, a in enumerate(args)
                             if isinstance(a, _Home) and a.reg is not None})
        for i, arg in enumerate(args):
            if not (isinstance(arg, _Home) and arg.reg is not None):
                self._load_into(i + 1, arg)
            self._free(arg)
        self._emit(Op.CALL, imm=self.helpers[name])
        temp = _Temp(reg=0)
        self._live.append(temp)
        return temp

    def _relocate(self, temp: _Temp, avoid: set) -> None:
        """Move ``temp`` to a free register outside ``avoid``, or spill it."""
        busy = self._busy()
        for reg in self._pool:
            if reg not in busy and reg not in avoid:
                self._emit(Op.MOV, dst=reg, src=temp.reg)
                temp.reg = reg
                return
        self._spill(temp)

    def _parallel_move(self, moves: Dict[int, int]) -> None:
        """Set every register ``dst`` of ``moves`` to the value register
        ``moves[dst]`` held before any of them was written."""
        moves = {dst: src for dst, src in moves.items() if dst != src}
        while moves:
            ready = [dst for dst in moves if dst not in moves.values()]
            if ready:
                self._emit(Op.MOV, dst=ready[0], src=moves.pop(ready[0]))
                continue
            # A cycle: swap two registers in place.
            dst, src = next(iter(moves.items()))
            self._emit(Op.XOR, dst=dst, src=src)
            self._emit(Op.XOR, dst=src, src=dst)
            self._emit(Op.XOR, dst=dst, src=src)
            del moves[dst]
            moves = {d: (src if s == dst else dst if s == src else s)
                     for d, s in moves.items()}
            moves = {d: s for d, s in moves.items() if d != s}


def _split_displacement(node: ast.expr) -> "tuple[Optional[ast.expr], int]":
    """Split an address into its non-constant part (None when there is
    none) and the constant added to it, modulo 2**64."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return None, node.value & WORD_MASK
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, lc = _split_displacement(node.left)
        right, rc = _split_displacement(node.right)
        if isinstance(node.op, ast.Sub):
            if right is not None:
                return node, 0
            return left, (lc - rc) & WORD_MASK
        if left is None or right is None:
            return (right if left is None else left), (lc + rc) & WORD_MASK
        return ast.BinOp(left=left, op=ast.Add(), right=right), \
            (lc + rc) & WORD_MASK
    return node, 0


#: Most compiled programs :func:`compile_pluglet` keeps.
MAX_SOURCES = 256
#: Most helper mappings :func:`compile_program` keeps per source.
MAX_MAPPINGS = 8

#: {source: [(helper mapping, (instructions, bytecode)), ...]}, sources
#: least recently used first, mappings oldest first.
_SOURCES: "OrderedDict[str, list]" = OrderedDict()


def compile_program(source_or_func, helpers: Optional[dict] = None) -> tuple:
    """``(instructions, bytecode)`` of one function compiled with a
    helper mapping: a tuple of instructions and their encoding.

    The code is a pure function of the source text and the mapping, so a
    pair compiled before is not compiled (or encoded) again: the last
    :data:`MAX_SOURCES` sources are kept, each with the last
    :data:`MAX_MAPPINGS` mappings it was compiled with, found by
    comparing the mapping, not hashing it.  A hit returns the same bytes
    object, whose hash Python keeps.  A source that fails to compile is
    not kept."""
    source = (inspect.getsource(source_or_func) if callable(source_or_func)
              else source_or_func)
    helpers = helpers or {}
    compiled = _SOURCES.get(source)
    if compiled is not None:
        _SOURCES.move_to_end(source)
        for mapping, program in compiled:
            if mapping == helpers:
                return program
    instructions = tuple(PlugletCompiler(helpers).compile(source))
    program = (instructions, encode_program(instructions))
    if compiled is None:
        compiled = _SOURCES[source] = []
        if len(_SOURCES) > MAX_SOURCES:
            _SOURCES.popitem(last=False)
    compiled.append((dict(helpers), program))
    if len(compiled) > MAX_MAPPINGS:
        del compiled[0]
    return program


def compile_pluglet(source_or_func, helpers: Optional[dict] = None) -> list:
    """Compile one function with a helper mapping
    (:func:`compile_program`); every call returns a fresh list."""
    return list(compile_program(source_or_func, helpers)[0])
