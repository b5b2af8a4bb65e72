"""Protocol plugins: manifests, pluglets, per-connection instances (§2).

A *pluglet* is bytecode implementing one function, attached to one anchor
of one protocol operation.  A *manifest* names the plugin (globally
unique) and lists how its pluglets link to protocol operations.  The
combination forms a *protocol plugin*; serialized, it is exactly the
``binding = pluginname || plugincode`` of §3.1 — what validators hash into
their Merkle trees.

*Loading* (:meth:`Plugin.load`) is everything that depends only on that
binding — the verification verdict, the analyzer's proofs, the
JIT-compiled closures — and happens once per :class:`Plugin` object.
Each piece is computed once: the §2.1 rules once per pluglet (the
verdict), one abstract interpretation per pluglet extending that report
(the proofs and the effect summaries), and one closure per pluglet at
load — the proof-specialized one where a proof applies; the
fully-checked fallback of such a pluglet is compiled by the first run
that needs it (:class:`~repro.vm.jit.JitCode`).
*Instantiation* (:class:`PluginInstance`) happens once per connection and
gives the plugin its dedicated memory, one PRE
(:class:`~repro.vm.interpreter.VirtualMachine`) per pluglet sharing that
heap (Figure 2) and running the shared code, and wrapper callables that
marshal protocol-operation invocations into the VM.  A memory violation
at run time removes the plugin and terminates the connection (§2.1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from repro.errors import TransportError, TransportErrorCode
from repro.quic.wire import Buffer
from repro.vm.analysis import (
    Severity,
    VerificationError,
    analyze,
    check_conflicts,
    deepen,
    summarize_plugin,
    verify_report,
)
from repro.vm.compiler import compile_pluglet
from repro.vm.interpreter import (
    DEFAULT_FUEL,
    DEFAULT_HELPER_BUDGET,
    ExecutionError,
    MemoryViolation,
    PluginMemory,
    VirtualMachine,
)
from repro.vm.isa import decode_program, encode_program
from repro.vm.jit import create_vm, jit_enabled_by_env, load_jit

from .api import (
    CORE_HELPER_NAMES,
    HELPER_EFFECTS,
    ApiViolation,
    InvocationContext,
    PluginApi,
    marshal,
)
from .memory import BlockAllocator
from .protoop import Anchor, ProtoopError

_NO_RESULT = object()

#: Host-side hooks per plugin-name prefix.  Pluglet bytecode is portable,
#: but the host functions a plugin calls (its extended helper set, its
#: frame codecs) live in the local implementation — the analogue of the
#: PQUIC functions exposed to the PRE.  Plugin modules register a resolver
#: so a plugin received over the wire regains its hooks.
_HOST_RESOLVERS: dict = {}


def register_host_resolver(name_prefix: str, resolver: Callable) -> None:
    """``resolver(plugin_name) -> (host_helpers, frame_registrar,
    helper_effects)``, the host-side arguments of :class:`Plugin`."""
    _HOST_RESOLVERS[name_prefix] = resolver


def _resolve_host_hooks(name: str):
    best = None
    for prefix in _HOST_RESOLVERS:
        if name.startswith(prefix) and (best is None or len(prefix) > len(best)):
            best = prefix
    if best is None:
        return None, None, None
    return _HOST_RESOLVERS[best](name)


#: Anchor wire encoding for manifests.
_ANCHORS = {"replace": 0, "pre": 1, "post": 2, "external": 3}
_ANCHORS_REV = {v: k for k, v in _ANCHORS.items()}

DEFAULT_PLUGIN_MEMORY = 16 * 1024


@dataclass
class Pluglet:
    """One bytecode function linked to a protocol operation anchor."""

    name: str
    protoop: str
    anchor: str  # replace | pre | post | external
    instructions: list
    param: Any = None  # int, str or None
    #: Per-invocation runtime budgets (0 = host default): instruction fuel
    #: and helper calls.  Part of the manifest, hence of the §3.1 binding.
    fuel: int = 0
    helper_budget: int = 0
    #: Protoops this pluglet may invoke through ``plugin_run_protoop``.
    #: Declared in the manifest because trigger targets are resolved by
    #: runtime-assigned ids, hence statically unknowable from bytecode;
    #: the conflict analyzer builds its cross-plugin call graph from this
    #: (and flags undeclared use of the helper as a wildcard, PRE204).
    triggers: tuple = ()

    def __post_init__(self):
        if self.anchor not in _ANCHORS:
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.fuel < 0 or self.helper_budget < 0:
            raise ValueError("budgets must be >= 0 (0 = host default)")
        self.triggers = tuple(self.triggers)

    @property
    def bytecode(self) -> bytes:
        return encode_program(self.instructions)

    @classmethod
    def from_source(
        cls,
        name: str,
        protoop: str,
        anchor: str,
        source: str,
        helpers: Optional[dict] = None,
        param: Any = None,
        fuel: int = 0,
        helper_budget: int = 0,
        triggers: tuple = (),
    ) -> "Pluglet":
        """Compile restricted-Python source into a pluglet (the paper's
        C-to-eBPF step)."""
        mapping = dict(CORE_HELPER_NAMES)
        if helpers:
            mapping.update(helpers)
        return cls(
            name=name,
            protoop=protoop,
            anchor=anchor,
            instructions=compile_pluglet(source, helpers=mapping),
            param=param,
            fuel=fuel,
            helper_budget=helper_budget,
            triggers=triggers,
        )


class Plugin:
    """A manifest plus pluglets — the unit of distribution and validation.

    The pluglet list is immutable once the plugin is verified, analyzed or
    loaded (it is the §3.1 binding): the results are kept on the object
    and serve every connection the plugin is instantiated on."""

    def __init__(self, name: str, pluglets: list,
                 memory_size: int = DEFAULT_PLUGIN_MEMORY,
                 host_helpers: Optional[Callable] = None,
                 frame_registrar: Optional[Callable] = None,
                 helper_effects: Optional[dict] = None):
        self.name = name  # globally unique, e.g. "org.pquic.monitoring"
        self.pluglets = pluglets
        self.memory_size = memory_size
        #: Optional factory: (runtime) -> {helper_id: callable}. The host-
        #: side functions this plugin exposes to its bytecode, the analogue
        #: of PQUIC functions exported to the PRE.
        self.host_helpers = host_helpers
        #: Optional hook: (conn) -> None registering new frame codecs.
        self.frame_registrar = frame_registrar
        #: {helper_id: HelperEffect} for every helper the bytecode can
        #: call: the core table plus what the plugin declares for its
        #: own host helpers.  A helper left out is taken to reach the
        #: calling pluglet's stack.
        self.helper_effects = {**HELPER_EFFECTS, **(helper_effects or {})}
        #: Analyzer reports, one per pluglet in order: shallow (the §2.1
        #: rules) until ``_deep``, when they were extended in place.
        self._analysis: Optional[list] = None
        self._deep = False
        self._effects = None
        #: Verification verdict, kept like the analysis: the error of
        #: the first failing pluglet, None when verified and clean.
        self._verified = False
        self._rejection: Optional[VerificationError] = None
        #: Loaded code, {pluglet name: JitCode}.
        self._code: Optional[dict] = None

    # --- serialization (the §3.1 binding) -------------------------------

    def serialize(self) -> bytes:
        """``pluginname || plugincode``: manifest and all bytecodes."""
        buf = Buffer()
        buf.push_varint_prefixed_bytes(self.name.encode("utf-8"))
        buf.push_varint(self.memory_size)
        buf.push_varint(len(self.pluglets))
        for p in self.pluglets:
            buf.push_varint_prefixed_bytes(p.name.encode("utf-8"))
            buf.push_varint_prefixed_bytes(p.protoop.encode("utf-8"))
            buf.push_uint8(_ANCHORS[p.anchor])
            if p.param is None:
                buf.push_uint8(0)
            elif isinstance(p.param, int):
                buf.push_uint8(1)
                buf.push_varint(p.param)
            else:
                buf.push_uint8(2)
                buf.push_varint_prefixed_bytes(str(p.param).encode("utf-8"))
            buf.push_varint(p.fuel)
            buf.push_varint(p.helper_budget)
            buf.push_varint(len(p.triggers))
            for trigger in p.triggers:
                buf.push_varint_prefixed_bytes(trigger.encode("utf-8"))
            buf.push_varint_prefixed_bytes(p.bytecode)
        return buf.data()

    @classmethod
    def deserialize(cls, data: bytes) -> "Plugin":
        buf = Buffer(data)
        name = buf.pull_varint_prefixed_bytes().decode("utf-8")
        memory_size = buf.pull_varint()
        count = buf.pull_varint()
        pluglets = []
        for _ in range(count):
            pname = buf.pull_varint_prefixed_bytes().decode("utf-8")
            protoop = buf.pull_varint_prefixed_bytes().decode("utf-8")
            anchor = _ANCHORS_REV[buf.pull_uint8()]
            tag = buf.pull_uint8()
            if tag == 0:
                param: Any = None
            elif tag == 1:
                param = buf.pull_varint()
            else:
                param = buf.pull_varint_prefixed_bytes().decode("utf-8")
            fuel = buf.pull_varint()
            helper_budget = buf.pull_varint()
            triggers = tuple(
                buf.pull_varint_prefixed_bytes().decode("utf-8")
                for _ in range(buf.pull_varint())
            )
            bytecode = buf.pull_varint_prefixed_bytes()
            pluglets.append(Pluglet(pname, protoop, anchor,
                                    decode_program(bytecode), param,
                                    fuel=fuel, helper_budget=helper_budget,
                                    triggers=triggers))
        host_helpers, frame_registrar, helper_effects = \
            _resolve_host_hooks(name)
        return cls(name, pluglets, memory_size=memory_size,
                   host_helpers=host_helpers, frame_registrar=frame_registrar,
                   helper_effects=helper_effects)

    def compressed(self) -> bytes:
        """The ZIP-compressed exchange format (§3.4 / Table 2)."""
        return zlib.compress(self.serialize(), level=9)

    @classmethod
    def decompress(cls, data: bytes) -> "Plugin":
        return cls.deserialize(zlib.decompress(data))

    def verify_all(self) -> None:
        """Static verification of every pluglet; §2.1: "A plugin is
        rejected if any of the above checks fails for one of its
        pluglets."  The verdict is kept: a plugin is checked once, and one
        that failed is rejected again on every later call.  The verdict is
        read off the analyzer reports — shallow ones, unless a deep
        analysis already ran — so the rules are evaluated once either
        way."""
        if not self._verified:
            self._verified = True
            for p, report in zip(self.pluglets, self._reports(deep=False)):
                try:
                    verify_report(report)
                except VerificationError as exc:
                    rejection = VerificationError(
                        f"plugin {self.name}: pluglet {p.name}: {exc.reason}",
                        exc.pc)
                    rejection.rule = exc.rule
                    self._rejection = rejection
                    break
        if self._rejection is not None:
            raise self._rejection.with_traceback(None)

    def analyze_all(self) -> dict:
        """Static-analyzer reports for every pluglet, keyed by pluglet
        name.  Cached: the pluglet list is immutable once distributed (it
        is the §3.1 binding), so one analysis serves every connection the
        plugin attaches to."""
        return {p.name: report
                for p, report in zip(self.pluglets, self._reports(deep=True))}

    def _reports(self, deep: bool) -> list:
        """The analyzer reports in pluglet order, each pluglet analyzed
        once: the §2.1 rules first, and the deep passes on top of them
        when a deep report is asked for."""
        if self._analysis is None:
            self._analysis = [
                analyze(p.instructions, heap_size=self.memory_size,
                        deep=False)
                for p in self.pluglets]
        if deep and not self._deep:
            self._deep = True
            for p, report in zip(self.pluglets, self._analysis):
                deepen(report, p.instructions)
        return self._analysis

    def effect_summaries(self):
        """Per-pluglet effect summaries (fields read/written, helpers,
        declared triggers) for the inter-plugin conflict analyzer, read
        off the call sites in :meth:`analyze_all`'s reports.  Cached for
        the same reason."""
        if self._effects is None:
            self._effects = summarize_plugin(self, self.helper_effects,
                                             self._reports(deep=True))
        return self._effects

    @property
    def loaded(self) -> bool:
        """True when :meth:`load` has nothing left to produce under the
        current ``REPRO_JIT`` switch.  A proven pluglet's fully-checked
        closure is not part of the load: its
        :class:`~repro.vm.jit.JitCode` compiles it on the first run that
        needs it."""
        return self._verified and self._rejection is None and (
            not jit_enabled_by_env() or self._code is not None)

    def load(self) -> Optional[dict]:
        """Verify the plugin and JIT-compile its pluglets — §2.5: paid
        once per plugin, not per connection.  One closure per pluglet is
        compiled here (:func:`~repro.vm.jit.load_jit`).  Returns
        ``{pluglet name: JitCode}`` shared by every instance, or None when
        ``REPRO_JIT=0`` leaves nothing to compile."""
        self.verify_all()
        if not jit_enabled_by_env():
            return None
        if self._code is None:
            reports = self.analyze_all()
            stack_blind = frozenset(
                hid for hid, effect in self.helper_effects.items()
                if not effect.reaches_stack)
            self._code = {
                p.name: load_jit(p.instructions, reports[p.name], stack_blind)
                for p in self.pluglets
            }
        return self._code

    def stats(self) -> dict:
        """Table-2 style statistics."""
        raw = self.serialize()
        return {
            "name": self.name,
            "pluglets": len(self.pluglets),
            "instructions": sum(len(p.instructions) for p in self.pluglets),
            "size_bytes": len(raw),
            "compressed_bytes": len(self.compressed()),
        }


class PluginRuntime:
    """Per-(plugin, connection) execution state shared by the helpers."""

    def __init__(self, plugin: Plugin, conn):
        self.plugin = plugin
        self.plugin_name = plugin.name
        self.conn = conn
        self.memory = PluginMemory(plugin.memory_size)
        self.allocator = BlockAllocator(self.memory)
        self._opaque: dict[int, int] = {}  # oid -> address
        self.context: Optional[InvocationContext] = None
        self.fields_read: set = set()
        self.fields_written: set = set()
        #: Plugin-specific host helpers (helper_id -> callable).
        self.extra_helpers: dict = {}
        #: Frame constructors usable through reserve_frames
        #: (ctor_id -> callable(runtime, args) -> ReservedFrame).
        self.frame_ctors: dict = {}
        self._protoop_ids: dict[int, str] = {}
        self._protoop_ids_rev: dict[str, int] = {}
        #: Host helpers may deposit a Python object here to become the
        #: protoop result (e.g. a parsed Frame); the wrapper returns it in
        #: place of the pluglet's integer r0.
        self.pending_result: Any = _NO_RESULT
        if plugin.host_helpers is not None:
            self.extra_helpers.update(plugin.host_helpers(self))

    def set_result(self, value: Any) -> None:
        self.pending_result = value

    # --- naming -----------------------------------------------------------

    def protoop_id(self, name: str) -> int:
        """Stable numeric id for a protoop name (for bytecode use)."""
        if name not in self._protoop_ids_rev:
            new_id = len(self._protoop_ids_rev) + 1
            self._protoop_ids_rev[name] = new_id
            self._protoop_ids[new_id] = name
        return self._protoop_ids_rev[name]

    def protoop_name(self, op_id: int) -> str:
        try:
            return self._protoop_ids[op_id]
        except KeyError:
            raise ApiViolation(f"unknown protoop id {op_id}")

    # --- frame reservation -------------------------------------------------

    def reserve_frame(self, ctor_id: int, args: tuple) -> int:
        ctor = self.frame_ctors.get(ctor_id)
        if ctor is None:
            raise ApiViolation(f"unknown frame constructor {ctor_id}")
        reserved = ctor(self, args)
        if reserved is None:
            return 0
        self.conn.reserve_frames([reserved])
        return 1

    # --- opaque data ------------------------------------------------------

    def opaque_data(self, oid: int, size: int) -> int:
        """Named plugin-memory areas pluglets retrieve consistently."""
        if oid not in self._opaque:
            self._opaque[oid] = self.allocator.malloc(size)
        return self._opaque[oid]


class PluginInstance:
    """A plugin instantiated on one connection: PREs + wrappers + heap."""

    def __init__(self, plugin: Plugin, conn):
        code = plugin.load()
        self.plugin = plugin
        self.conn = conn
        self.runtime = PluginRuntime(plugin, conn)
        api = PluginApi(self.runtime)
        helper_table = api.helper_table()
        self.vms: dict[str, VirtualMachine] = {}
        self._attached: list = []  # (protoop, anchor, func, param)
        #: Static-analysis reports per pluglet, for the
        #: ``plugin_analyzed`` event.
        self.analysis_reports: dict = plugin.analyze_all()
        for p in plugin.pluglets:
            # One VM shell per pluglet — its own counters and budgets —
            # around the plugin's shared JIT-compiled code, with automatic
            # interpreter fallback (the paper JITs pluglet bytecode; see
            # repro/vm/jit.py).
            self.vms[p.name] = create_vm(
                p.instructions, self.runtime.memory, helpers=helper_table,
                instruction_budget=p.fuel or DEFAULT_FUEL,
                helper_call_budget=p.helper_budget or DEFAULT_HELPER_BUDGET,
                code=code[p.name] if code else None,
            )
        self.attached = False
        #: PRE profiler (see :mod:`repro.trace.profile`), None when
        #: profiling is off — the only cost then is this one attribute
        #: test per invocation.
        self._profiler = getattr(conn, "profiler", None)

    # --- invocation -----------------------------------------------------------

    def _run_profiled(self, vm, pluglet: Pluglet, marshaled: tuple) -> Any:
        """Run the PRE under the profiler: attribute the fuel / helper /
        wall-time deltas of this invocation to (plugin, pluglet, protoop),
        recording faulting runs too."""
        fuel0 = vm.instructions_executed
        helpers0 = vm.helper_calls_made
        fault = True
        t0 = perf_counter()
        try:
            value = vm.run(*marshaled)
            fault = False
            return value
        finally:
            self._profiler.record(
                self.plugin.name, pluglet.name, pluglet.protoop,
                fuel=vm.instructions_executed - fuel0,
                helper_calls=vm.helper_calls_made - helpers0,
                wall_s=perf_counter() - t0,
                jit=vm.execution_path == "jit",
                fault=fault,
            )

    def invoke(self, pluglet: Pluglet, args: tuple, writable: bool) -> Any:
        vm = self.vms[pluglet.name]
        runtime = self.runtime
        previous = runtime.context
        previous_result = runtime.pending_result
        runtime.context = InvocationContext(args, writable)
        runtime.pending_result = _NO_RESULT
        try:
            n = len(args)
            a1 = marshal(args[0], 0) if n > 0 else 0
            a2 = marshal(args[1], 1) if n > 1 else 0
            a3 = marshal(args[2], 2) if n > 2 else 0
            a4 = marshal(args[3], 3) if n > 3 else 0
            a5 = marshal(args[4], 4) if n > 4 else 0
            if self._profiler is None:
                value = vm.run(a1, a2, a3, a4, a5)
            else:
                value = self._run_profiled(vm, pluglet, (a1, a2, a3, a4, a5))
            if runtime.pending_result is not _NO_RESULT:
                return runtime.pending_result
            return value
        except (MemoryViolation, ExecutionError, ApiViolation,
                ProtoopError) as exc:
            containment = getattr(self.conn, "containment", None)
            if containment is not None and containment.on_pluglet_failure(
                self, pluglet.name, exc
            ):
                # Contained: the plugin was detached and quarantined, the
                # connection proceeds without it.
                return None
            self._on_runtime_failure(exc)
            if isinstance(exc, (ApiViolation, ProtoopError)):
                raise
            raise TransportError(
                TransportErrorCode.PLUGIN_MEMORY_VIOLATION
                if isinstance(exc, MemoryViolation)
                else TransportErrorCode.PLUGIN_RUNTIME_ERROR,
                f"plugin {self.plugin.name}: pluglet {pluglet.name}: {exc}",
            )
        finally:
            runtime.context = previous
            runtime.pending_result = previous_result

    def _on_runtime_failure(self, exc: Exception) -> None:
        """§2.1: any violation of memory safety results in the removal of
        the plugin and the termination of the connection."""
        self.detach()
        error = TransportError(
            TransportErrorCode.PLUGIN_MEMORY_VIOLATION
            if isinstance(exc, MemoryViolation)
            else TransportErrorCode.PLUGIN_RUNTIME_ERROR,
            str(exc),
        )
        self.conn.abort_on_plugin_failure(error)

    # --- attachment -----------------------------------------------------------

    def attach(self) -> None:
        """Insert every pluglet at its anchor; on any failure (e.g. a
        second ``replace`` on the same protoop) the whole plugin is rolled
        back (§2.2)."""
        if self.attached:
            return
        conflicts = self._check_conflicts()
        try:
            if self.plugin.frame_registrar is not None:
                self.plugin.frame_registrar(self.conn)
            for pluglet in self.plugin.pluglets:
                self._attach_one(pluglet)
        except ProtoopError:
            self.detach()
            raise
        self.attached = True
        self.conn.plugins[self.plugin.name] = self
        self.conn.protoops.run(self.conn, "plugin_injected", None, self.plugin.name)
        self._emit_analysis_event()
        self._emit_conflict_event(conflicts)

    def _check_conflicts(self) -> list:
        """Attach-time inter-plugin compatibility check: the incoming
        plugin's effect summaries against the already-attached set.  An
        error-severity conflict (``PRE200``/``PRE203``) rejects the plugin
        before anything is registered; warnings ride along in the
        ``plugin:conflict_report`` event.  A hard collision that got past
        it would still be refused by the protoop table at registration
        time."""
        from .api import FIELD_NAMES

        attached = [
            instance.plugin.effect_summaries()
            for instance in self.conn.plugins.values()
            if instance is not self
        ]
        diags = check_conflicts(attached, self.plugin.effect_summaries(),
                                FIELD_NAMES)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        if errors:
            raise ProtoopError(
                TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                f"plugin {self.plugin.name} conflicts with attached set: "
                f"{errors[0].rule}: {errors[0].message}",
            )
        return diags

    def _emit_conflict_event(self, conflicts: list) -> None:
        """Surface the (non-fatal) compatibility report as a protoop event
        (traced as ``plugin:conflict_report``)."""
        if not conflicts:
            return
        rules = ",".join(sorted({d.rule for d in conflicts}))
        self.conn.protoops.emit(self.conn, "plugin_conflict_report",
                                self.plugin.name, len(conflicts), rules)

    def _emit_analysis_event(self) -> None:
        """Surface the attach-time static analysis as a protoop event
        (traced as ``plugin:analysis``): diagnostic totals plus how many
        pluglets were proven fully memory-safe."""
        reports = self.analysis_reports
        if not reports:
            return
        errors = sum(len(r.errors()) for r in reports.values())
        warnings = sum(len(r.warnings()) for r in reports.values())
        proven = sum(1 for r in reports.values() if r.memory_safe)
        self.conn.protoops.emit(self.conn, "plugin_analyzed", self.plugin.name,
                                len(reports), errors, warnings, proven)

    def _attach_one(self, pluglet: Pluglet) -> None:
        table = self.conn.protoops
        if pluglet.anchor == "replace":
            func = self._make_replace(pluglet)
            table.attach(pluglet.protoop, Anchor.REPLACE, func, param=pluglet.param)
            self._attached.append((pluglet.protoop, Anchor.REPLACE, func, pluglet.param))
        elif pluglet.anchor == "external":
            func = self._make_replace(pluglet)
            table.attach(pluglet.protoop, Anchor.REPLACE, func,
                         param=pluglet.param, external=True)
            self._attached.append((pluglet.protoop, Anchor.REPLACE, func, pluglet.param))
        elif pluglet.anchor == "pre":
            func = self._make_pre(pluglet)
            table.attach(pluglet.protoop, Anchor.PRE, func, param=pluglet.param)
            self._attached.append((pluglet.protoop, Anchor.PRE, func, pluglet.param))
        else:
            func = self._make_post(pluglet)
            table.attach(pluglet.protoop, Anchor.POST, func, param=pluglet.param)
            self._attached.append((pluglet.protoop, Anchor.POST, func, pluglet.param))

    def _make_replace(self, pluglet: Pluglet) -> Callable:
        def run_replace(conn, *args):
            return self.invoke(pluglet, args, writable=True)

        run_replace.pluglet = pluglet  # type: ignore[attr-defined]
        return run_replace

    def _make_pre(self, pluglet: Pluglet) -> Callable:
        def run_pre(conn, args):
            self.invoke(pluglet, args, writable=False)

        run_pre.pluglet = pluglet  # type: ignore[attr-defined]
        return run_pre

    def _make_post(self, pluglet: Pluglet) -> Callable:
        def run_post(conn, args, result):
            self.invoke(pluglet, args + (result,), writable=False)

        run_post.pluglet = pluglet  # type: ignore[attr-defined]
        return run_post

    def detach(self) -> None:
        table = self.conn.protoops
        for protoop, anchor, func, param in self._attached:
            table.detach(protoop, anchor, func, param=param)
        self._attached.clear()
        self.attached = False
        # Only drop the name registration if it is ours: a rolled-back
        # second plugin with the same name must not evict the first.
        if self.conn.plugins.get(self.plugin.name) is self:
            del self.conn.plugins[self.plugin.name]
