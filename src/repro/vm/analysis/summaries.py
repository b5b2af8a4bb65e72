"""Per-pluglet effect summaries inferred from the interval analysis.

The abstract interpreter records, at every ``CALL`` site, the interval
of each argument register (:class:`~.absint.CallSite`).  The helper ABI
passes the field id of ``plugin_get``/``plugin_set`` in r1, so a
constant r1 interval statically identifies *which* connection or
transient field the call touches.  Combined with the declarative
:class:`HelperEffect` metadata the host annotates its helper table with
(:data:`repro.core.api.HELPER_EFFECTS`), this yields a per-pluglet
summary of

* which fields the pluglet may read and which it may write;
* which helpers it calls;
* which protoops it can transitively trigger (``plugin_run_protoop``
  targets are runtime-assigned ids, so triggers are declared in the
  plugin manifest; bytecode that reaches a trigger helper *without*
  declaring targets is flagged as a wildcard).

Summaries are the input to the cross-plugin conflict catalog
(:mod:`.conflicts`) and call graph (:mod:`.callgraph`).  The analyzer's
report keeps the call sites (``AnalysisReport.call_sites``), so a plugin
that was analyzed is summarized without interpreting its bytecode again
(:func:`summarize_calls`); :func:`summarize_pluglet` interprets it for
callers that hold no report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .absint import interpret
from .cfg import ControlFlowGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa import Instruction
    from .absint import CallSite
    from .report import AnalysisReport

#: A pluglet parameter: frame-type ids are ints, named parameters strings.
Param = Optional[Union[int, str]]


@dataclass(frozen=True)
class HelperEffect:
    """Declarative effect metadata for one host helper.

    ``field_arg`` names the argument position (0 = r1) that carries a
    field id when the helper reads (``writes_field`` False) or writes
    (True) host state; ``triggers_protoop`` marks helpers that dispatch
    other protoops (``plugin_run_protoop``); ``reaches_stack`` marks
    helpers that read or write the calling pluglet's stack (through
    ``vm.current_stack``, ``vm.load`` or ``vm.store``) — the JIT keeps a
    pluglet's frame in locals across a call to any helper declared
    without it, and treats an undeclared helper id as having it."""

    name: str
    field_arg: Optional[int] = None
    writes_field: bool = False
    triggers_protoop: bool = False
    reaches_stack: bool = False


@dataclass(frozen=True)
class EffectSummary:
    """What one pluglet may do to shared host state."""

    pluglet: str
    protoop: str
    anchor: str
    param: Param = None
    fields_read: Tuple[int, ...] = ()
    fields_written: Tuple[int, ...] = ()
    #: a read/write helper was reached with a non-constant field id
    unknown_reads: bool = False
    unknown_writes: bool = False
    helpers: Tuple[int, ...] = ()
    #: protoop names declared in the manifest as potential triggers
    triggers: Tuple[str, ...] = ()
    #: bytecode reaches a trigger helper (plugin_run_protoop)
    calls_run_protoop: bool = False

    def reads_field(self, fid: int) -> bool:
        return self.unknown_reads or fid in self.fields_read

    def writes_field(self, fid: int) -> bool:
        return self.unknown_writes or fid in self.fields_written


@dataclass(frozen=True)
class PluginEffects:
    """Effect summaries for every pluglet of one plugin."""

    plugin: str
    summaries: Tuple[EffectSummary, ...] = field(default=())

    def writes(self) -> Tuple[int, ...]:
        seen = sorted({fid for s in self.summaries for fid in s.fields_written})
        return tuple(seen)


def summarize_pluglet(name: str,
                      protoop: str,
                      anchor: str,
                      instructions: "Iterable[Instruction]",
                      effects: Mapping[int, HelperEffect],
                      heap_size: int = 16 * 1024,
                      param: Param = None,
                      triggers: Tuple[str, ...] = ()) -> EffectSummary:
    """Infer one pluglet's effect summary from its bytecode.

    ``effects`` is the host's helper-id -> :class:`HelperEffect` table;
    helpers absent from it are assumed effect-free on shared state
    (they may still compute, allocate plugin memory, etc.)."""
    absint = interpret(ControlFlowGraph(list(instructions)), heap_size)
    return summarize_calls(name, protoop, anchor,
                           absint.call_sites.values(), absint.helper_ids,
                           effects, param, triggers)


def summarize_calls(name: str,
                    protoop: str,
                    anchor: str,
                    call_sites: "Iterable[CallSite]",
                    helper_ids: Iterable[int],
                    effects: Mapping[int, HelperEffect],
                    param: Param = None,
                    triggers: Tuple[str, ...] = ()) -> EffectSummary:
    """One pluglet's effect summary from the call sites and helper ids an
    abstract interpretation of it found (an :class:`AnalysisReport`
    keeps both)."""
    reads: set = set()
    writes: set = set()
    unknown_reads = False
    unknown_writes = False
    calls_run_protoop = False
    for site in call_sites:
        effect = effects.get(site.helper_id)
        if effect is None:
            continue
        if effect.triggers_protoop:
            calls_run_protoop = True
        if effect.field_arg is None:
            continue
        fid = site.const_arg(effect.field_arg)
        if fid is None:
            if effect.writes_field:
                unknown_writes = True
            else:
                unknown_reads = True
        elif effect.writes_field:
            writes.add(fid)
        else:
            reads.add(fid)

    return EffectSummary(
        pluglet=name,
        protoop=protoop,
        anchor=anchor,
        param=param,
        fields_read=tuple(sorted(reads)),
        fields_written=tuple(sorted(writes)),
        unknown_reads=unknown_reads,
        unknown_writes=unknown_writes,
        helpers=tuple(sorted(helper_ids)),
        triggers=tuple(triggers),
        calls_run_protoop=calls_run_protoop,
    )


def summarize_plugin(
    plugin: object,
    effects: Mapping[int, HelperEffect],
    reports: "Optional[Sequence[AnalysisReport]]" = None,
) -> PluginEffects:
    """Summarize every pluglet of a duck-typed plugin (``name``,
    ``memory_size``, ``pluglets`` with ``name``/``protoop``/``anchor``/
    ``instructions`` and optional ``param``/``triggers``).

    ``reports`` — the pluglets' deep analyzer reports, in pluglet order
    — supply the call sites when given; without them each pluglet's
    bytecode is interpreted here."""
    heap_size = int(getattr(plugin, "memory_size", 16 * 1024))
    summaries = []
    for i, pluglet in enumerate(getattr(plugin, "pluglets", [])):
        param = getattr(pluglet, "param", None)
        triggers = tuple(getattr(pluglet, "triggers", ()) or ())
        if reports is None:
            summaries.append(summarize_pluglet(
                pluglet.name, pluglet.protoop, pluglet.anchor,
                pluglet.instructions, effects, heap_size, param, triggers))
        else:
            summaries.append(summarize_calls(
                pluglet.name, pluglet.protoop, pluglet.anchor,
                reports[i].call_sites, reports[i].helper_ids, effects,
                param, triggers))
    return PluginEffects(plugin=str(getattr(plugin, "name", "?")),
                         summaries=tuple(summaries))
