"""The program store: a pluglet's load work, once per process, by content.

§2.5: a connection injecting a plugin the host already knows "can reuse
the cached PREs as is, without verifying or compiling the pluglets
again".  What loading a pluglet produces — the decoded instructions, the
analyzer report, the §2.1 verdict read off it and the JIT-compiled
closures — is a pure function of its bytecode and of the heap size the
proofs assume.  The store keeps it once per process under that key, the
full bytes and not a hash of them: every
:class:`~repro.core.plugin.Plugin` holding the same code, whether a
builder made it, a peer sent it or a validator decoded it, reads one
:class:`Program`.  Two plugin names with the same bytecode can bind
different helpers, so a program keeps one closure per ``stack_blind``
set (:func:`~repro.vm.jit.compile_jit`) — as far as it differs on the
helpers the program calls, the only ones the closure depends on.

The store is bounded: it keeps the :data:`MAX_PROGRAMS` programs used
last.  An evicted program is recomputed when it is asked for again; a
plugin that resolved it keeps its reference.  Bytes that do not decode
are not kept; a program that fails §2.1 is kept with its verdict.  What
is per connection — heap, VM shells, budgets — is not here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from . import compiler
from .analysis import AnalysisReport, VerificationError, analyze, deepen
from .analysis.verify import verify_report
from .isa import Op, decode_program
from .jit import JitCode, load_jit

#: Most programs the store keeps.
MAX_PROGRAMS = 256

_UNKNOWN = object()


class Program:
    """One pluglet program as loaded: the instructions its bytecode
    decodes to, its analyzer report — shallow (the §2.1 rules) until a
    deep one is asked for, then deepened in place, once — its verdict
    and its closures."""

    __slots__ = ("heap_size", "instructions", "_calls", "_report", "_deep",
                 "_rejection", "_code")

    def __init__(self, bytecode: bytes, heap_size: int):
        self.heap_size = heap_size
        self.instructions = tuple(decode_program(bytecode))
        #: Helper ids the program calls.
        self._calls = frozenset(ins.imm for ins in self.instructions
                                if ins.opcode is Op.CALL)
        self._report: Optional[AnalysisReport] = None
        self._deep = False
        self._rejection = _UNKNOWN
        #: {stack_blind: JitCode}.
        self._code: dict = {}

    def report(self, deep: bool) -> AnalysisReport:
        """The analyzer report: the §2.1 rules first, the deep passes on
        top of them when a deep report is asked for."""
        if self._report is None:
            self._report = analyze(self.instructions,
                                   heap_size=self.heap_size, deep=False)
        if deep and not self._deep:
            self._deep = True
            deepen(self._report, self.instructions)
        return self._report

    @property
    def rejection(self) -> Optional[VerificationError]:
        """The §2.1 verdict, read off the report as it stands: the error
        of the first failing rule, None when the program verifies."""
        if self._rejection is _UNKNOWN:
            try:
                verify_report(self.report(deep=False))
                self._rejection = None
            except VerificationError as exc:
                self._rejection = exc
        return self._rejection

    def jit(self, stack_blind: frozenset) -> JitCode:
        """The loaded code for helpers ``stack_blind``
        (:func:`~repro.vm.jit.load_jit`), compiled on the first ask."""
        blind = stack_blind & self._calls
        code = self._code.get(blind)
        if code is None:
            code = self._code[blind] = load_jit(
                self.instructions, self.report(deep=True), blind)
        return code

    def compiled(self, stack_blind: frozenset) -> bool:
        return stack_blind & self._calls in self._code


#: {(bytecode, heap size): Program}, least recently used first.
_PROGRAMS: "OrderedDict[tuple, Program]" = OrderedDict()


def program(bytecode: bytes, heap_size: int) -> Program:
    """The program of ``bytecode`` against a ``heap_size``-byte heap,
    decoded and stored on first use.  Raises ``ValueError`` for bytes
    that do not decode."""
    key = (bytecode, heap_size)
    entry = _PROGRAMS.get(key)
    if entry is not None:
        _PROGRAMS.move_to_end(key)
        return entry
    entry = Program(bytecode, heap_size)
    _PROGRAMS[key] = entry
    if len(_PROGRAMS) > MAX_PROGRAMS:
        _PROGRAMS.popitem(last=False)
    return entry


def clear() -> None:
    """Empty the program store and the compiler's source memo: what a
    host that has never seen any code starts from."""
    _PROGRAMS.clear()
    compiler._SOURCES.clear()
