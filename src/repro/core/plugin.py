"""Protocol plugins: manifests, pluglets, per-connection instances (§2).

A *pluglet* is bytecode implementing one function, attached to one anchor
of one protocol operation.  A *manifest* names the plugin (globally
unique) and lists how its pluglets link to protocol operations.  The
combination forms a *protocol plugin*; serialized, it is exactly the
``binding = pluginname || plugincode`` of §3.1 — what validators hash into
their Merkle trees.

*Loading* (:meth:`Plugin.load`) is everything that depends only on the
pluglets' code — the verification verdict, the analyzer's proofs, the
JIT-compiled closures — and happens once per process, by content: a
plugin reads it from the program store (:mod:`repro.vm.programs`), keyed
by each pluglet's bytecode and the plugin's heap size, so a plugin built
again, received from a peer or decoded by a validator does no load work
for code the process has loaded before; bytes the process has decoded
before are not parsed again (:meth:`Plugin.deserialize`).  Each piece is
computed once per program: the §2.1 rules (the verdict), one abstract
interpretation extending that report (the proofs and the effect
summaries), and one closure at load — the proof-specialized one where a
proof applies; the fully-checked fallback of such a pluglet is compiled
by the first run that needs it (:class:`~repro.vm.jit.JitCode`).  What a plugin keeps of
its own is its references into the store and its effect summaries,
which depend on its name's host binding.
The anchors are content too: the (operation, anchor, parameter, pluglet)
rows of a plugin are derived once per content and binding, as one
:class:`~repro.core.protoop.AnchorSet` whose behaviours find the
connection's instance through the connection they run on, so attaching
a plugin copies nothing of it into the connection's table.
*Instantiation* (:class:`PluginInstance`) happens once per connection and
gives the plugin what is the connection's alone: its dedicated memory,
the helper table bound to it, and one PRE
(:class:`~repro.vm.interpreter.VirtualMachine`) per pluglet sharing that
heap (Figure 2) and running the shared code — built by the pluglet's
first run, with its own counters and budgets.  A memory violation at run
time removes the plugin and terminates the connection (§2.1).
"""

from __future__ import annotations

import functools
import re
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from time import perf_counter
from types import MethodType
from typing import Any, Callable, Optional

from repro.errors import TransportError, TransportErrorCode
from repro.quic.packet import Epoch
from repro.quic.wire import Buffer
from repro.vm import programs
from repro.vm.analysis import (
    Severity,
    VerificationError,
    check_conflicts,
    summarize_plugin,
)
from repro.vm.compiler import compile_program
from repro.vm.interpreter import (
    DEFAULT_FUEL,
    DEFAULT_HELPER_BUDGET,
    ExecutionError,
    MemoryViolation,
    PluginMemory,
    VirtualMachine,
)
from repro.vm.isa import encode_program
from repro.vm.jit import create_vm, jit_enabled_by_env

from .api import (
    CORE_HELPER_NAMES,
    FIELD_NAMES,
    FIELD_TABLE,
    H_PLUGIN_BASE,
    HELPER_EFFECTS,
    ApiViolation,
    InvocationContext,
    PluginApi,
    marshal,
)
from .memory import BlockAllocator
from .protoop import Anchor, AnchorSet, ProtoopError
from .scheduler import ReservedFrame

_NO_RESULT = object()

#: Every declared :class:`HostBinding`, by plugin-name prefix.
HOST_BINDINGS: dict = {}


class HostBinding:
    """The host side of a plugin, declared once by the module that owns it.

    Pluglet bytecode is portable, but the host functions a plugin calls
    beyond the core API (its extended helper set, its frame codecs) live
    in the local implementation — the analogue of the PQUIC functions
    exposed to the PRE.  A binding lists them in one place:

    * ``helpers``: ``(effect, function)`` pairs.  The helper at position
      ``i`` has id ``H_PLUGIN_BASE + i`` and is named by its
      :class:`HelperEffect`; ``function(runtime, vm, r1, ..., r5)`` runs
      on the calling plugin's :class:`PluginRuntime`.
    * ``frames``: the frame classes the plugin adds, registered with the
      connection at attach.
    * ``setup(runtime)``: makes per-connection host state with the
      runtime; ``on_attach(runtime)``: a host action at attach.

    Declaring a binding registers it under ``prefix``.  :class:`Plugin`
    takes the binding of the longest dotted prefix of its name, whether a
    builder made it or :meth:`Plugin.deserialize` decoded it; a host
    parameter that differs from its default is part of the name
    (:func:`name_param`)."""

    def __init__(self, prefix: str, helpers: tuple = (), frames: tuple = (),
                 setup: Optional[Callable] = None,
                 on_attach: Optional[Callable] = None):
        self.prefix = prefix
        numbered = list(enumerate(helpers, H_PLUGIN_BASE))
        #: {helper id: HelperEffect}.
        self.effects = {hid: effect for hid, (effect, _) in numbered}
        #: {helper name: helper id}, for :meth:`Pluglet.from_source`.
        self.ids = {effect.name: hid for hid, (effect, _) in numbered}
        self._functions = {hid: function for hid, (_, function) in numbered}
        #: {frame type: frame class}.
        self.frames = {cls.type: cls for cls in frames}
        self.setup = setup
        self.on_attach = on_attach
        #: {helper_id: HelperEffect} for every helper a plugin of this
        #: binding can call: the core table plus the binding's own.  A
        #: helper left out is taken to reach the calling pluglet's stack.
        self.helper_effects = {**HELPER_EFFECTS, **self.effects}
        #: Ids of the helpers that never touch the calling pluglet's
        #: stack, for :func:`~repro.vm.jit.compile_jit`.
        self.stack_blind = frozenset(
            hid for hid, effect in self.helper_effects.items()
            if not effect.reaches_stack)
        HOST_BINDINGS[prefix] = self

    def bind(self, runtime) -> dict:
        """``{helper id: callable(vm, r1..r5)}`` for one runtime, after
        its setup."""
        if self.setup is not None:
            self.setup(runtime)
        return {hid: MethodType(function, runtime)
                for hid, function in self._functions.items()}

    def attach(self, runtime) -> None:
        """Register the declared frames, then run the attach action."""
        registry = runtime.conn.frame_registry
        for frame_type, cls in self.frames.items():
            registry.register(frame_type, cls)
        if self.on_attach is not None:
            self.on_attach(runtime)


#: Plugins no module declares: the core API alone.
HostBinding("")


def host_binding(name: str) -> HostBinding:
    """The binding of the longest dotted prefix of ``name`` declared."""
    parts = name.split(".")
    while parts and ".".join(parts) not in HOST_BINDINGS:
        parts.pop()
    return HOST_BINDINGS[".".join(parts)]


def name_param(name: str, key: str, default: int) -> int:
    """Host parameter ``key`` of plugin ``name``: its ``key=<n>`` segment,
    ``n`` one to nine ASCII digits, else ``default``.  A variant whose
    host side differs from the default names it, so it is found again when
    the plugin is received; the name may come from the peer."""
    for segment in name.split("."):
        k, sep, value = segment.partition("=")
        if sep and k == key and re.fullmatch("[0-9]{1,9}", value):
            return int(value)
    return default


def plugin_builder(build: Callable[..., "Plugin"]) -> Callable[..., "Plugin"]:
    """Make ``build`` — a function of hashable arguments assembling a
    plugin from source — run once per process per arguments: a later call
    returns a fresh copy of what it built (:meth:`Plugin.copy`), kept in
    the program store (:func:`repro.vm.programs.built`), so a build of
    known source derives nothing."""

    @functools.wraps(build)
    def known_build(*args, **kwargs) -> "Plugin":
        key = (build, args, tuple(kwargs.items()))
        return programs.built(key, lambda: build(*args, **kwargs)).copy()

    return known_build


#: Anchor wire encoding for manifests.
_ANCHORS = {"replace": 0, "pre": 1, "post": 2, "external": 3}
_ANCHORS_REV = {v: k for k, v in _ANCHORS.items()}

DEFAULT_PLUGIN_MEMORY = 16 * 1024

#: Most attached sets whose conflict verdict a plugin entry keeps.
MAX_ATTACHED_SETS = 64

#: What a pluglet contributes to its plugin's content key: everything
#: :meth:`Plugin.serialize` encodes of it.
_CONTENT = attrgetter("name", "protoop", "anchor", "param", "fuel",
                      "helper_budget", "triggers", "bytecode")


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
    #: The encoding of ``instructions`` where it came with them — from
    #: the compiler's memo or off the wire — so that finding the
    #: program in the store encodes nothing.
    _bytecode: Optional[bytes] = field(default=None, repr=False,
                                       compare=False)

    def __post_init__(self):
        if self.anchor not in _ANCHORS:
            raise ValueError(f"unknown anchor {self.anchor!r}")
        if self.fuel < 0 or self.helper_budget < 0:
            raise ValueError("budgets must be >= 0 (0 = host default)")
        self.triggers = tuple(self.triggers)

    @property
    def bytecode(self) -> bytes:
        if self._bytecode is not None:
            return self._bytecode
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
        C-to-eBPF step).  A build of known source derives nothing: the
        compiled and validated pluglet is kept by content
        (:func:`repro.vm.programs.built`), and each call returns a fresh
        copy of it."""
        key = (source, name, protoop, anchor, param, fuel, helper_budget,
               tuple(triggers), tuple(helpers.items()) if helpers else ())
        return programs.built(key, lambda: cls._compile(*key)).copy()

    def copy(self) -> "Pluglet":
        """A fresh pluglet of the same fields (its own instruction list),
        validated already."""
        pluglet = object.__new__(type(self))
        pluglet.__dict__.update(self.__dict__)
        pluglet.instructions = list(self.instructions)
        return pluglet

    @classmethod
    def _compile(cls, source: str, name: str, protoop: str, anchor: str,
                 param: Any, fuel: int, helper_budget: int, triggers: tuple,
                 helpers: tuple) -> "Pluglet":
        mapping = {**CORE_HELPER_NAMES, **dict(helpers)} if helpers \
            else CORE_HELPER_NAMES
        instructions, bytecode = compile_program(source, helpers=mapping)
        return cls(name=name, protoop=protoop, anchor=anchor,
                   instructions=instructions, param=param, fuel=fuel,
                   helper_budget=helper_budget, triggers=triggers,
                   _bytecode=bytecode)


class Plugin:
    """A manifest plus pluglets — the unit of distribution and validation.

    The pluglet list is immutable once the plugin is verified, analyzed or
    loaded (it is the §3.1 binding), and a decoded one from the start:
    the plugin then holds the store's entry of its content
    (:class:`_Loaded`) — one
    :class:`~repro.vm.programs.Program` per pluglet and what is derived
    from them — shared with every plugin of the same content and
    binding, and serving every connection the plugin is instantiated
    on."""

    def __init__(self, name: str, pluglets: list,
                 memory_size: int = DEFAULT_PLUGIN_MEMORY):
        self.name = name  # globally unique, e.g. "org.pquic.monitoring"
        #: The plugin a copy (:meth:`copy`) takes its pluglets from.
        self._source: Optional[Plugin] = None
        self.pluglets = pluglets
        self.memory_size = memory_size
        #: The host side this host declares for the name, and the
        #: helper effects and stack-blind helper ids it states.
        self.host = host_binding(name)
        self.helper_effects = self.host.helper_effects
        self.stack_blind = self.host.stack_blind
        #: The store's entry of this content, found on first use.
        self._loaded: Optional[_Loaded] = None

    @property
    def pluglets(self) -> list:
        """The pluglets in manifest order.  A copy makes its own from
        its source's when they are first asked for: instantiating and
        attaching a copy of known content reads none."""
        if self._pluglets is None:
            self._pluglets = [p.copy() for p in self._source.pluglets]
        return self._pluglets

    @pluglets.setter
    def pluglets(self, pluglets: list) -> None:
        self._pluglets = pluglets

    def copy(self) -> "Plugin":
        """A fresh plugin of this content — its own plugin and pluglet
        objects.  Until its pluglets are read it is its source's content,
        and its entry is the source's while its name, memory size and
        host binding are too; an edit made before its first use is its
        own, as for any plugin."""
        plugin = type(self)(self.name, None, self.memory_size)
        plugin._source = self if self._pluglets is not None else self._source
        return plugin

    # --- serialization (the §3.1 binding) -------------------------------

    def serialize(self) -> bytes:
        """``pluginname || plugincode``: manifest and all bytecodes,
        encoded once per content (kept with its entry).  A plugin whose
        pluglets were edited after its first use is encoded as it is
        now."""
        entry = self._entry()
        if self._key() != entry.key:
            return self._encode()
        if entry.encoding is None:
            entry.encoding = self._encode()
        return entry.encoding

    def _encode(self) -> bytes:
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
        """The plugin ``data`` encodes, decoded once per process by
        content (:func:`repro.vm.programs.decoded`): each call returns a
        copy (:meth:`copy`) of the first decode, which the store keeps
        private, so bytes seen before parse nothing, and a hit makes its
        own :class:`Pluglet` objects only when its pluglets are read —
        as a built plugin's copy does.  Raises
        ``FrameEncodingError`` or ``ValueError`` for bytes that do not
        decode — bytes after the last pluglet included, so bytes that
        decode are the plugin's serialization, up to the varint forms."""
        return programs.decoded(bytes(data), _Decoded).plugin.copy()

    def compressed(self) -> bytes:
        """The ZIP-compressed exchange format (§3.4 / Table 2)."""
        return zlib.compress(self.serialize(), level=9)

    @classmethod
    def decompress(cls, data: bytes) -> "Plugin":
        return cls.deserialize(zlib.decompress(data))

    def _entry(self) -> "_Loaded":
        """The store's entry of this plugin's content, looked up on first
        use: a plugin built here and one received share it."""
        if self._loaded is None:
            source = self._source
            if self._pluglets is None and self.host is source.host and (
                    self.name, self.memory_size) == (source.name,
                                                     source.memory_size):
                self._loaded = source._entry()  # an untouched copy
            else:
                key = self._key()
                self._loaded = programs.plugin(key, lambda: _Loaded(self, key))
        return self._loaded

    def _key(self) -> tuple:
        """The content key of the plugin as it is now: name, memory size,
        host binding and every pluglet's encoded fields (:data:`_CONTENT`)."""
        if self._pluglets is None:  # an untouched copy: its source's pluglets
            contents = self._source._entry().key[3:]
        else:
            contents = tuple(map(_CONTENT, self._pluglets))
        return (self.name, self.memory_size, self.host, *contents)

    def verify_all(self) -> None:
        """Static verification of every pluglet; §2.1: "A plugin is
        rejected if any of the above checks fails for one of its
        pluglets."  The verdict is kept with each program: code is
        checked once per process, and a plugin that failed is rejected
        again, naming itself and its pluglet, on every later call.  The
        verdict is read off the analyzer reports — shallow ones, unless a
        deep analysis already ran — so the rules are evaluated once
        either way."""
        entry = self._entry()
        if entry.verified:
            return
        for name, program in zip(entry.names, entry.programs):
            exc = program.rejection
            if exc is not None:
                rejection = VerificationError(
                    f"plugin {self.name}: pluglet {name}: {exc.reason}",
                    exc.pc)
                rejection.rule = exc.rule
                raise rejection
        entry.verified = True

    def analyze_all(self) -> dict:
        """Static-analyzer reports for every pluglet, keyed by pluglet
        name.  Shared: a report is a function of the pluglet's code, so
        one analysis serves every plugin holding that code and every
        connection they attach to."""
        return {p.name: report
                for p, report in zip(self.pluglets, self._entry().reports())}

    def effect_summaries(self):
        """Per-pluglet effect summaries (fields read/written, helpers,
        declared triggers) for the inter-plugin conflict analyzer, read
        off the call sites in :meth:`analyze_all`'s reports.  Kept with
        the content: they also depend on its binding's helper effects."""
        entry = self._entry()
        if entry.effects is None:
            entry.effects = summarize_plugin(self, self.helper_effects,
                                             entry.reports())
        return entry.effects

    def conflicts_with(self, attached: list) -> list:
        """The conflict diagnostics of attaching this plugin on top of
        the ``attached`` plugins (:func:`~repro.vm.analysis.check_conflicts`
        over the effect summaries).  A function of the contents
        involved: kept with this plugin's entry, per attached set."""
        known = self._entry().conflicts
        key = tuple(plugin._entry() for plugin in attached)
        diags = known.get(key)
        if diags is None:
            if len(known) >= MAX_ATTACHED_SETS:
                known.clear()
            diags = known[key] = check_conflicts(
                [plugin.effect_summaries() for plugin in attached],
                self.effect_summaries(), FIELD_NAMES)
        return diags

    @property
    def loaded(self) -> bool:
        """True when :meth:`load` has nothing left to produce under the
        current ``REPRO_JIT`` switch: the plugin was verified and its
        code is in the process, loaded by it or by any plugin of the same
        code.  A proven pluglet's fully-checked closure is not part of
        the load: its :class:`~repro.vm.jit.JitCode` compiles it on the
        first run that needs it."""
        entry = self._loaded
        if entry is None or any(p.rejection is not None
                                for p in entry.programs):
            return False
        return not jit_enabled_by_env() or all(
            p.compiled(self.stack_blind) for p in entry.programs)

    def load(self) -> Optional[dict]:
        """Verify the plugin and JIT-compile its pluglets — §2.5: paid
        once per program in the process, not per plugin or connection.
        One closure per program is compiled
        (:func:`~repro.vm.jit.load_jit`).  Returns ``{pluglet name:
        JitCode}`` shared by every instance, or None when ``REPRO_JIT=0``
        leaves nothing to compile."""
        self.verify_all()
        if not jit_enabled_by_env():
            return None
        entry = self._loaded
        if entry.code is None:
            entry.code = {p.name: program.jit(self.stack_blind)
                          for p, program in zip(self.pluglets, entry.programs)}
        return entry.code

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


class _Decoded:
    """The store's entry of one serialized plugin
    (:func:`repro.vm.programs.decoded`): the plugin its bytes decode to.
    Never handed out: each decode is a copy of it (:meth:`Plugin.copy`)."""

    __slots__ = ("plugin",)

    def __init__(self, data: bytes) -> None:
        buf = Buffer(data)
        name = buf.pull_varint_prefixed_bytes().decode("utf-8")
        memory_size = buf.pull_varint()
        pluglets = []
        for _ in range(buf.pull_varint()):
            pname = buf.pull_varint_prefixed_bytes().decode("utf-8")
            protoop = buf.pull_varint_prefixed_bytes().decode("utf-8")
            byte = buf.pull_uint8()
            anchor = _ANCHORS_REV.get(byte)
            if anchor is None:
                raise ValueError(f"unknown anchor byte {byte}")
            tag = buf.pull_uint8()
            if tag == 0:
                param: Any = None
            elif tag == 1:
                param = buf.pull_varint()
            elif tag == 2:
                param = buf.pull_varint_prefixed_bytes().decode("utf-8")
            else:
                raise ValueError(f"unknown parameter tag {tag}")
            fuel = buf.pull_varint()
            helper_budget = buf.pull_varint()
            triggers = tuple(
                buf.pull_varint_prefixed_bytes().decode("utf-8")
                for _ in range(buf.pull_varint())
            )
            code = buf.pull_varint_prefixed_bytes()
            pluglets.append(Pluglet(
                pname, protoop, anchor,
                programs.program(code, memory_size).instructions, param,
                fuel=fuel, helper_budget=helper_budget, triggers=triggers,
                _bytecode=code))
        if not buf.eof():
            raise ValueError(
                f"{buf.remaining} bytes after the last pluglet")
        self.plugin = Plugin(name, pluglets, memory_size)


class _Loaded:
    """The store's entry of one plugin content and binding
    (:func:`repro.vm.programs.plugin`): the program of each pluglet and
    what a plugin derives from them — its verdict, closures, reports,
    effect summaries, analysis totals, encoding and anchors — each
    computed once for every plugin object and connection of that
    content."""

    __slots__ = ("key", "names", "index", "budgets", "programs", "verified",
                 "code", "effects", "_reports", "_analysis", "conflicts",
                 "encoding", "_anchors")

    def __init__(self, plugin: Plugin, key: tuple) -> None:
        #: The content key it is stored under (:meth:`Plugin._key`).
        self.key = key
        pluglets = plugin.pluglets
        self.names = tuple(p.name for p in pluglets)
        #: {pluglet name: position}, the last of a name winning.
        self.index = {name: i for i, name in enumerate(self.names)}
        #: (instruction fuel, helper calls) per run of each pluglet.
        self.budgets = tuple(
            (p.fuel or DEFAULT_FUEL, p.helper_budget or DEFAULT_HELPER_BUDGET)
            for p in pluglets)
        #: The program store's entries, one per pluglet in order.
        self.programs = [programs.program(p.bytecode, plugin.memory_size)
                         for p in pluglets]
        self.verified = False
        #: {pluglet name: JitCode}, once loaded with the JIT on.
        self.code: Optional[dict] = None
        self.effects = None
        self._reports: Optional[list] = None
        self._analysis: Optional[tuple] = None
        #: {entries of an attached set: conflict diagnostics}, at most
        #: :data:`MAX_ATTACHED_SETS` of them.
        self.conflicts: dict = {}
        #: The §3.1 binding's bytes (:meth:`Plugin.serialize`).
        self.encoding: Optional[bytes] = None
        self._anchors: Optional[AnchorSet] = None

    def reports(self) -> list:
        """The deep analyzer reports, in pluglet order."""
        if self._reports is None:
            self._reports = [program.report(deep=True)
                             for program in self.programs]
        return self._reports

    def analysis(self) -> tuple:
        """``(pluglets, errors, warnings, proven)`` of the
        ``plugin_analyzed`` event, over the reports by pluglet name."""
        if self._analysis is None:
            reports = dict(zip(self.names, self.reports())).values()
            self._analysis = (
                len(reports), sum(len(r.errors()) for r in reports),
                sum(len(r.warnings()) for r in reports),
                sum(1 for r in reports if r.memory_safe))
        return self._analysis

    def anchors(self, plugin: Plugin) -> AnchorSet:
        """The (operation, anchor, behaviour, parameter, external) rows
        of the content, made from ``plugin``'s pluglets on first use."""
        if self._anchors is None:
            self._anchors = AnchorSet(_anchor(plugin.name, p)
                                      for p in plugin.pluglets)
        return self._anchors


def _anchor(plugin_name: str, pluglet: Pluglet) -> tuple:
    """``(protoop, anchor, behaviour, param, external)`` of a pluglet of
    the plugin named ``plugin_name``.  The behaviour runs the pluglet on
    the instance of that plugin attached to the connection it is called
    with; an observer whose plugin was detached earlier in the same run
    does nothing."""
    if pluglet.anchor in ("replace", "external"):
        def run_replace(conn, *args):
            return conn.plugins[plugin_name].invoke(pluglet, args, True)

        return (pluglet.protoop, Anchor.REPLACE, run_replace, pluglet.param,
                pluglet.anchor == "external")
    if pluglet.anchor == "pre":
        def run_pre(conn, args):
            instance = conn.plugins.get(plugin_name)
            if instance is not None:
                instance.invoke(pluglet, args, False)

        return (pluglet.protoop, Anchor.PRE, run_pre, pluglet.param, False)

    def run_post(conn, args, result):
        instance = conn.plugins.get(plugin_name)
        if instance is not None:
            instance.invoke(pluglet, args + (result,), False)

    return (pluglet.protoop, Anchor.POST, run_post, pluglet.param, False)


#: Paths a connection may have; :meth:`PluginRuntime.open_path` opens no more.
MAX_PATHS = 8


class PluginRuntime:
    """Per-(plugin, connection) execution state shared by the helpers,
    and through :attr:`SURFACE` the plugin's one door to its connection."""

    #: The only host operations a plugin's host functions, and the core
    #: ``get``, ``set`` and ``push_message`` helpers, use.
    SURFACE = ("get_field", "set_field", "push_message", "reserve",
               "open_path", "find_path", "owed_acks", "path_ack",
               "recover", "parse_frames", "max_payload", "local_addresses")

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
        self._protoop_ids: dict[int, str] = {}
        self._protoop_ids_rev: dict[str, int] = {}
        #: Host helpers may deposit a Python object here to become the
        #: protoop result (e.g. a parsed Frame); the wrapper returns it in
        #: place of the pluglet's integer r0.
        self.pending_result: Any = _NO_RESULT
        #: Plugin-specific host helpers (helper_id -> callable).
        self.extra_helpers: dict = plugin.host.bind(self)

    def set_result(self, value: Any) -> None:
        self.pending_result = value

    # --- the host surface -------------------------------------------------

    def get_field(self, field_id: int, index: int) -> int:
        """Field ``field_id`` (``FLD_*``) of path ``index``; refused
        (:class:`ApiViolation`) for an unknown id or by field policy."""
        spec = FIELD_TABLE.get(field_id)
        if spec is None:
            raise ApiViolation(f"unknown field id 0x{field_id:x}")
        conn = self.conn
        self.fields_read.add(spec.name)
        policy = getattr(conn, "field_policy", None)
        if policy is not None:
            policy.check(self.plugin_name, spec.name, False)
        return spec.getter(conn, index)

    def set_field(self, field_id: int, index: int, value: int) -> None:
        """Write a field; refused as :meth:`get_field` is, and for a
        read-only field or from a running passive pluglet."""
        spec = FIELD_TABLE.get(field_id)
        if spec is None:
            raise ApiViolation(f"unknown field id 0x{field_id:x}")
        ctx = self.context
        if ctx is not None and not ctx.writable:
            raise ApiViolation(
                f"passive pluglet attempted to set field {spec.name!r}")
        if spec.setter is None:
            raise ApiViolation(f"field {spec.name!r} is read-only")
        self.fields_written.add(spec.name)
        policy = getattr(self.conn, "field_policy", None)
        if policy is not None:
            policy.check(self.plugin_name, spec.name, True)
        spec.setter(self.conn, index, value)

    def push_message(self, data: bytes) -> None:
        """Hand ``data`` to the application's handler for this plugin
        (``conn.message_handlers``, §2.4); dropped if it has none."""
        handler = self.conn.message_handlers.get(self.plugin_name)
        if handler is not None:
            handler(data)

    def reserve(self, frame, congestion_controlled: bool = True) -> None:
        """Book ``frame`` in this plugin's queue of the DRR scheduler
        (Table 1's ``reserve_frames``); if not ``congestion_controlled``
        it may leave with the window full, as an ACK does."""
        conn = self.conn
        conn.protoops.run(conn, "reserve_frame_slot", None, ReservedFrame(
            frame, self.plugin_name, congestion_controlled))

    def open_path(self, local: Optional[str] = None,
                  peer: Optional[str] = None) -> Optional[int]:
        """Open a path (a side not given is path 0's) and start its §8.2
        validation; its index, or None at :data:`MAX_PATHS` paths."""
        conn = self.conn
        paths = conn.paths
        if len(paths) >= MAX_PATHS:
            return None
        index = conn.protoops.run(
            conn, "create_path", None,
            paths[0].local_addr if local is None else local,
            paths[0].peer_addr if peer is None else peer)
        conn.start_path_validation(index)
        return index

    def find_path(self, local: Optional[str] = None,
                  peer: Optional[str] = None) -> Optional[int]:
        """Index of the first path with these addresses (a side not given
        matches any), or None."""
        for path in self.conn.paths:
            if (local is None or path.local_addr == local) \
                    and (peer is None or path.peer_addr == peer):
                return path.index
        return None

    def owed_acks(self) -> list:
        """``[(path index, ACK frame)]`` of the paths owing one, each
        then counted as sent."""
        now = self.conn.now
        owed = []
        for path in self.conn.paths:
            space = path.space
            ack = space.ack_needed and space.ack_frame(now)
            if ack:
                space.ack_needed = False
                owed.append((path.index, ack))
        return owed

    def path_ack(self, path_index: int, ack) -> bool:
        """Process ``ack`` for path ``path_index``'s packet-number space;
        False, doing nothing, for a path the connection lacks."""
        conn = self.conn
        if not 0 <= path_index < len(conn.paths):
            return False
        conn._process_ack_frame(
            ack, {"epoch": Epoch.ONE_RTT, "path_index": path_index})
        return True

    def recover(self, path_index: int, pn: int, payload: bytes) -> bool:
        """Process ``payload`` as packet ``pn`` of path ``path_index``,
        arrived; False, doing nothing, for a path the connection lacks
        or a packet it has."""
        conn = self.conn
        if not 0 <= path_index < len(conn.paths) \
                or pn in conn.paths[path_index].space.received:
            return False
        conn.protoops.run(
            conn, "process_recovered_payload", None, path_index, pn, payload)
        return True

    def parse_frames(self, payload: bytes) -> list:
        """``[(frame type, frame)]`` of a packet payload."""
        return self.conn.frame_registry.parse_all(payload)

    @property
    def max_payload(self) -> int:
        """Largest UDP payload the connection sends."""
        return self.conn.configuration.max_udp_payload_size

    @property
    def local_addresses(self) -> list:
        """Extra local addresses the application offers for paths."""
        return self.conn.extra_local_addresses

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

    # --- opaque data ------------------------------------------------------

    def opaque_data(self, oid: int, size: int) -> int:
        """Named plugin-memory areas pluglets retrieve consistently."""
        if oid not in self._opaque:
            self._opaque[oid] = self.allocator.malloc(size)
        return self._opaque[oid]


class _Shells(Mapping):
    """:attr:`PluginInstance.vms`: the VM shell of every pluglet, by
    name, built when it is first asked for — by the pluglet's first run,
    or by a reader here."""

    __slots__ = ("_instance",)

    def __init__(self, instance: "PluginInstance") -> None:
        self._instance = instance

    def __getitem__(self, name: str) -> VirtualMachine:
        instance = self._instance
        shell = instance._shells.get(name)
        if shell is None:
            if name not in instance._entry.index:
                raise KeyError(name)
            shell = instance._shell(name)
        return shell

    def __iter__(self):
        return iter(self._instance._entry.index)

    def __len__(self) -> int:
        return len(self._instance._entry.index)


class PluginInstance:
    """A plugin instantiated on one connection: heap, helpers and PREs.

    What it makes is the connection's alone — the runtime with its heap,
    the helper table bound to it, and per pluglet a VM shell with its own
    counters and budgets around the plugin's shared code, built by the
    pluglet's first run.  Everything derived from the content is the
    plugin's: the code, and the anchors :meth:`attach` splices into the
    connection's table, which reach this instance through
    ``conn.plugins``."""

    def __init__(self, plugin: Plugin, conn):
        self._code = plugin.load()
        self._entry = plugin._entry()
        self.plugin = plugin
        self.conn = conn
        self.runtime = PluginRuntime(plugin, conn)
        self._helpers = PluginApi(self.runtime).helper_table()
        self._shells: dict = {}
        #: One VM shell per pluglet — its own counters and budgets —
        #: around the plugin's shared JIT-compiled code, with automatic
        #: interpreter fallback (the paper JITs pluglet bytecode; see
        #: repro/vm/jit.py).
        self.vms: Mapping = _Shells(self)
        self.attached = False
        #: PRE profiler (see :mod:`repro.trace.profile`), None when
        #: profiling is off — the only cost then is this one attribute
        #: test per invocation.
        self._profiler = getattr(conn, "profiler", None)

    def _shell(self, name: str) -> VirtualMachine:
        entry = self._entry
        position = entry.index[name]
        code = self._code
        shell = self._shells[name] = create_vm(
            entry.programs[position].instructions, self.runtime.memory,
            self._helpers, *entry.budgets[position],
            code=code[name] if code else None)
        return shell

    @property
    def analysis_reports(self) -> dict:
        """Static-analysis reports per pluglet (the plugin's)."""
        return self.plugin.analyze_all()

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
        vm = self._shells.get(pluglet.name)
        if vm is None:
            vm = self._shell(pluglet.name)
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
        """Insert every pluglet at its anchor, as one change; on any
        failure (e.g. a second ``replace`` on the same protoop, or a
        plugin of the same name attached already) the whole plugin is
        rolled back (§2.2)."""
        if self.attached:
            return
        name = self.plugin.name
        if self.conn.plugins.get(name, self) is not self:
            raise ProtoopError(TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                               f"plugin {name} is attached already")
        conflicts = self._check_conflicts()
        try:
            self.plugin.host.attach(self.runtime)
            self.conn.protoops.attach_set(self,
                                          self._entry.anchors(self.plugin))
        except ProtoopError:
            self.detach()
            raise
        self.attached = True
        self.conn.plugins[name] = self
        self.conn.protoops.run(self.conn, "plugin_injected", None, name)
        self._emit_analysis_event()
        self._emit_conflict_event(conflicts)

    def _check_conflicts(self) -> list:
        """Attach-time inter-plugin compatibility check: the incoming
        plugin's effect summaries against the already-attached set.  An
        error-severity conflict (``PRE200``/``PRE203``) rejects the plugin
        before anything is registered; warnings ride along in the
        ``plugin:conflict_report`` event.  A hard collision that got past
        it would still be refused by the protoop table at registration
        time.  The verdict is a function of the contents involved, kept
        with the incoming plugin's entry."""
        diags = self.plugin.conflicts_with([
            instance.plugin for instance in self.conn.plugins.values()
            if instance is not self])
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
        count, errors, warnings, proven = self._entry.analysis()
        if not count:
            return
        self.conn.protoops.emit(self.conn, "plugin_analyzed", self.plugin.name,
                                count, errors, warnings, proven)

    def detach(self) -> None:
        self.conn.protoops.detach_set(self)
        self.attached = False
        # Only drop the name registration if it is ours: a rolled-back
        # second plugin with the same name must not evict the first.
        if self.conn.plugins.get(self.plugin.name) is self:
            del self.conn.plugins[self.plugin.name]
