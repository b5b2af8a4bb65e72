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

A plugin derives more from its programs, once its name has chosen a
host binding: the effect summaries of the conflict check and the totals
of its ``plugin_analyzed`` event.  That is kept here too, one entry per
whole plugin (:func:`plugin`), keyed by its name, heap size, binding,
manifest and bytecodes, so a plugin object of known content — built
again for a new connection, or received — derives nothing.

The container around the programs is kept too (:func:`decoded`): what a
serialized plugin decodes to, keyed by its full bytes.  A validator
re-checking the published set every epoch, and a host receiving one
plugin from many peers, decode bytes they have seen before; the second
decode parses nothing and returns fresh plugin objects whose entry is
already resolved, so their verdict is a lookup.

A build from source is kept the same way (:func:`built`): the pluglet
a source compiles to under a manifest and helper mapping, and the plugin
a builder assembled from its arguments, so building a known plugin again
for a new connection compiles, merges and validates nothing and returns
a copy whose entry is resolved.

The stores are bounded: they keep the :data:`MAX_PROGRAMS` programs, and
the :data:`MAX_PLUGINS` plugin entries and decoded containers, used
last.  An evicted entry is recomputed when it is asked for again; a
plugin that resolved it keeps its reference.  Bytes that do not decode
are not kept; a program that fails §2.1 is kept with its verdict.  What
is per connection — heap, VM shells, budgets — is not here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional

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

#: Most plugin entries, and most decoded containers, the store keeps.
MAX_PLUGINS = 256

#: {plugin content key: entry}, least recently used first.
_PLUGINS: "OrderedDict[tuple, Any]" = OrderedDict()

#: {serialized plugin: what it decodes to}, least recently used first.
_DECODED: "OrderedDict[bytes, Any]" = OrderedDict()

#: {pluglet source and manifest fields, or builder and arguments: what
#: was built}, least recently used first, at most :data:`MAX_PROGRAMS`.
_BUILT: "OrderedDict[tuple, Any]" = OrderedDict()


def _remember(store: OrderedDict, cap: int, key: Any,
              make: Callable[[], Any]) -> Any:
    """``store[key]``, made by ``make`` on a miss; the ``cap`` entries
    used last are kept.  What ``make`` raises is not kept."""
    entry = store.get(key)
    if entry is None:
        entry = store[key] = make()
        if len(store) > cap:
            store.popitem(last=False)
    else:
        store.move_to_end(key)
    return entry


def program(bytecode: bytes, heap_size: int) -> Program:
    """The program of ``bytecode`` against a ``heap_size``-byte heap,
    decoded and stored on first use.  Raises ``ValueError`` for bytes
    that do not decode."""
    return _remember(_PROGRAMS, MAX_PROGRAMS, (bytecode, heap_size),
                     lambda: Program(bytecode, heap_size))


def plugin(key: tuple, make: Callable[[], Any]) -> Any:
    """The entry of a whole plugin, made by ``make`` on first use: what
    a plugin derives from its programs and its host binding (its effect
    summaries and analysis totals, see
    :class:`~repro.core.plugin.Plugin`), kept under a key of its name,
    heap size, binding, manifest and bytecodes."""
    return _remember(_PLUGINS, MAX_PLUGINS, key, make)


def decoded(data: bytes, parse: Callable[[bytes], Any]) -> Any:
    """What the serialized plugin ``data`` decodes to, made by
    ``parse(data)`` on first use and kept under the full bytes (see
    :meth:`~repro.core.plugin.Plugin.deserialize`).  What ``parse``
    raises is raised again on every call: bytes that do not decode are
    parsed afresh each time."""
    return _remember(_DECODED, MAX_PLUGINS, data, lambda: parse(data))


def built(key: tuple, make: Callable[[], Any]) -> Any:
    """What a build from source made, by ``make`` on first use, kept
    under ``key``: the pluglet a source compiles to under a manifest and
    helper mapping (:meth:`~repro.core.plugin.Pluglet.from_source`), or
    the plugin a builder assembled from its arguments
    (:func:`~repro.core.plugin.plugin_builder`).  Callers hand out
    copies, so a build of known source merges no mapping, compiles and
    validates nothing again."""
    return _remember(_BUILT, MAX_PROGRAMS, key, make)


def clear() -> None:
    """Empty the program store, its plugin entries, its decoded
    containers, its built pluglets and the compiler's source memo: what a
    host that has never seen any code starts from."""
    _PROGRAMS.clear()
    _PLUGINS.clear()
    _DECODED.clear()
    _BUILT.clear()
    compiler._SOURCES.clear()
