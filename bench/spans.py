"""Outside-in span tracing: timing wrappers around each layer's public
entry points, installed from here — nothing inside ``src/`` is edited.

``ENTRY_POINTS`` is the one table of what is wrapped.  Names are
resolved when :func:`install` runs, so a renamed or removed entry point
is reported in ``Tracer.missing`` instead of being dropped silently.
Behaviours handed to ``ProtoopTable.register`` / ``attach`` and plugin
host helpers returned by ``PluginApi.helper_table`` are wrapped as they
are registered and attributed to the layer of the module that defines
them (``BEHAVIOUR_LAYERS``), which is what keeps ``core.protoop`` self
time down to dispatch and plan glue.

A span is ``(entry point, start, end, parent)``.  Spans live on a stack;
when one ends, its duration minus the time its children covered is added
to its entry point's *self time*, and its duration to the
``parent layer → child layer`` edge.  Only aggregates and the first
``RAW_SPAN_LIMIT`` raw spans are kept: a bulk iteration opens a few
million spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: layer -> entry points, ``module:Class.method`` or ``module:function``.
ENTRY_POINTS = {
    "netsim": [
        "repro.netsim.topology:Figure7Topology.__init__",
        "repro.netsim.sim:Simulator.run",
        "repro.netsim.sim:Simulator.run_until",
        "repro.netsim.sim:Simulator.schedule",
        "repro.netsim.sim:Simulator.schedule_at",
        "repro.netsim.link:Pipe.send",
        "repro.netsim.link:Pipe.send_burst",
        "repro.netsim.node:Host.sendto",
        "repro.netsim.node:Host.send_burst",
        "repro.netsim.node:Host.receive",
        "repro.netsim.node:Host.receive_burst",
        "repro.netsim.node:Router.receive",
        "repro.netsim.node:Router.receive_burst",
    ],
    "quic.endpoint": [
        "repro.quic.endpoint:ClientEndpoint.__init__",
        "repro.quic.endpoint:ClientEndpoint.connect",
        "repro.quic.endpoint:ClientEndpoint.pump",
        "repro.quic.endpoint:ClientEndpoint.close",
        "repro.quic.endpoint:_ConnectionDriver.pump",
        "repro.quic.endpoint:_ConnectionDriver.receive",
        "repro.quic.endpoint:_ConnectionDriver.receive_burst",
        "repro.quic.endpoint:_ConnectionDriver._receive_one",
        "repro.quic.endpoint:_ConnectionDriver._on_timer",
        "repro.quic.endpoint:ServerEndpoint._receive",
        "repro.quic.endpoint:ServerEndpoint._receive_burst",
    ],
    "quic.connection": [
        "repro.quic.connection:QuicConnection.__init__",
        "repro.quic.connection:QuicConnection.receive_datagram",
        "repro.quic.connection:QuicConnection.datagrams_to_send",
        "repro.quic.connection:QuicConnection.handle_timer",
        "repro.quic.connection:QuicConnection.next_timer",
        "repro.quic.connection:QuicConnection.send_stream_data",
        "repro.quic.connection:QuicConnection.create_stream",
        "repro.quic.connection:QuicConnection.close",
    ],
    "quic.packet": [
        "repro.quic.packet:parse_header",
        "repro.quic.packet:encode_short_header",
        "repro.quic.packet:encode_long_header",
        "repro.quic.packet:seal_packet_into",
        "repro.quic.packet:open_payload",
    ],
    "quic.crypto": [
        "repro.quic.crypto:AeadContext.seal",
        "repro.quic.crypto:AeadContext.seal_into",
        "repro.quic.crypto:AeadContext.open",
    ],
    # Includes repro.quic.wire, whose Buffer calls are too fine to wrap.
    # ``Frame.*`` stands for every Frame subclass that defines the method.
    "quic.frames": [
        "repro.quic.frames:FrameRegistry.parse_one",
        "repro.quic.frames:FrameRegistry.parse_all",
        "repro.quic.frames:serialize_frames",
        "repro.quic.frames:Frame.serialize",
        "repro.quic.frames:Frame.parse",
    ],
    "quic.stream": [
        "repro.quic.stream:SendStream.write",
        "repro.quic.stream:SendStream.next_chunk",
        "repro.quic.stream:SendStream.on_ack",
        "repro.quic.stream:SendStream.on_loss",
        "repro.quic.stream:ReceiveStream.receive",
        "repro.quic.stream:ReceiveStream.read",
    ],
    "quic.recovery": [
        "repro.quic.recovery:PacketNumberSpace.on_packet_sent",
        "repro.quic.recovery:PacketNumberSpace.record_received",
        "repro.quic.recovery:PacketNumberSpace.ack_frame",
        "repro.quic.recovery:PacketNumberSpace.on_ack_received",
        "repro.quic.recovery:PacketNumberSpace.detect_lost",
        "repro.quic.recovery:PacketNumberSpace.next_timer",
        "repro.quic.recovery:PacketNumberSpace.probe_candidates",
        "repro.quic.recovery:RttEstimator.update",
    ],
    "quic.cc": [
        "repro.quic.cc:CongestionController.on_packet_sent",
        "repro.quic.cc:NewRenoController.on_ack",
        "repro.quic.cc:NewRenoController.on_loss",
        "repro.quic.cc:NewRenoController.on_spurious_loss",
        "repro.quic.cc:NewRenoController.on_persistent_congestion",
    ],
    "core.protoop": [
        "repro.core.protoop:ProtoopTable.run",
        "repro.core.protoop:ProtoopTable.run_external",
    ],
    "core.scheduler": [
        "repro.core.scheduler:schedule_packet_frames",
    ],
    "core.plugin": [
        "repro.core.plugin:PluginInstance.invoke",
    ],
    "vm": [
        "repro.vm.interpreter:VirtualMachine.run",
        "repro.vm.jit:JitVirtualMachine.run",
    ],
    "vm.load": [
        "repro.vm.compiler:compile_pluglet",
        "repro.core.plugin:Pluglet.from_source",
        "repro.core.plugin:Plugin.verify_all",
        "repro.core.plugin:Plugin.analyze_all",
        "repro.core.plugin:Plugin.deserialize",
        "repro.vm.jit:create_vm",
        "repro.vm.jit:compile_jit",
        "repro.core.plugin:PluginInstance.__init__",
        "repro.core.plugin:PluginInstance.attach",
    ],
    "core.exchange": [
        "repro.core.exchange:PluginExchanger.__init__",
        "repro.core.exchange:PluginExchanger.negotiate",
        "repro.core.exchange:PluginExchanger.inject_local",
        "repro.core.cache:PluginCache.store",
        "repro.core.cache:PluginCache.instantiate",
        "repro.secure.merkle:verify_path",
        "repro.secure.formula:parse_formula",
        "repro.secure.validator:PluginValidator.lookup",
    ],
    # Host-side code of repro.plugins.* is wrapped where it is registered.
    "plugins": [],
    # The benchmark's own app callbacks; run.py adds the root spans.
    "bench.driver": [
        "workloads:Requester._on_stream_data",
        "workloads:Responder._on_request_data",
    ],
}

#: Module prefix of a registered behaviour / helper -> layer.  Pluglet
#: closures from repro.core.plugin are left alone: they only forward to
#: ``PluginInstance.invoke``, which is wrapped.
BEHAVIOUR_LAYERS = (
    ("repro.quic.connection", "quic.connection"),
    ("repro.core.exchange", "core.exchange"),
    ("repro.plugins", "plugins"),
)

LAYERS = tuple(ENTRY_POINTS)
RAW_SPAN_LIMIT = 4000


class Tracer:
    """Span stack and per-entry-point aggregates."""

    def __init__(self) -> None:
        self.names: list = []        # entry point index -> name
        self.layer_of: list = []     # entry point index -> layer index
        self.self_s: list = []
        self.total_s: list = []
        self.calls: list = []
        self.edges: dict = {}        # (parent layer, child layer) -> [n, s]
        self.stack: list = []        # open spans: [entry index, child time]
        self.raw: list = []          # first spans: (name, start, end, parent)
        self.missing: list = []
        self._index: dict = {}
        self._undo: list = []

    # -- aggregates ---------------------------------------------------------

    def entry(self, name: str, layer: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(LAYERS.index(layer))
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return index

    def reset(self) -> None:
        for values in (self.self_s, self.total_s):
            values[:] = [0.0] * len(values)
        self.calls[:] = [0] * len(self.calls)
        self.edges.clear()

    def snapshot(self) -> dict:
        """Aggregates since the last :meth:`reset`, by layer and edge."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        entries = {}
        for i, name in enumerate(self.names):
            if not self.calls[i]:
                continue
            layer = LAYERS[self.layer_of[i]]
            layers[layer]["self_s"] += self.self_s[i]
            layers[layer]["calls"] += self.calls[i]
            entries[name] = {"layer": layer, "calls": self.calls[i],
                             "self_s": self.self_s[i],
                             "total_s": self.total_s[i]}
        edges = {f"{LAYERS[p]} -> {LAYERS[c]}": {"calls": n, "total_s": s}
                 for (p, c), (n, s) in sorted(self.edges.items())}
        return {"layers": layers, "entries": entries, "edges": edges}

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        index = self.entry(name, layer)
        layer_index = self.layer_of[index]
        stack, layer_of = self.stack, self.layer_of
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        edges, raw = self.edges, self.raw
        names = self.names
        clock = perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                calls[index] += 1
                total_s[index] += elapsed
                self_s[index] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (layer_of[parent[0]], layer_index)
                    edge = edges.get(key)
                    if edge is None:
                        edges[key] = [1, elapsed]
                    else:
                        edge[0] += 1
                        edge[1] += elapsed
                if len(raw) < RAW_SPAN_LIMIT:
                    raw.append((name, start, end,
                                names[stack[-1][0]] if stack else None))

        return span

    def wrap_behaviour(self, fn, label: str):
        """Wrap a protoop behaviour or host helper by defining module;
        returns ``fn`` itself when the module has no layer."""
        module = getattr(fn, "__module__", None) or ""
        for prefix, layer in BEHAVIOUR_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return self.wrap(fn, f"{layer}:{label}", layer)
        return fn

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name: str, layer: str) -> bool:
        raw = cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, layer)))
        else:
            self._set(cls, attr, self.wrap(raw, name, layer))
        return True

    def _patch_function(self, module, attr: str, name: str, layer: str) -> bool:
        fn = module.__dict__.get(attr)
        if not callable(fn):
            return False
        wrapped = self.wrap(fn, name, layer)
        # ``from x import f`` copies the binding: patch every repro
        # module that holds this very function object.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, key, wrapped)
        return True

    def _patch(self, target: str, layer: str) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner, _, attr = path.rpartition(".")
        if not owner:
            return self._patch_function(module, attr, target, layer)
        cls = module.__dict__.get(owner)
        if not isinstance(cls, type):
            return False
        if owner == "Frame":  # every subclass defining the method
            found = False
            pending = [cls]
            while pending:
                sub = pending.pop()
                pending.extend(sub.__subclasses__())
                found |= self._patch_method(
                    sub, attr, f"{sub.__module__}:{sub.__name__}.{attr}", layer)
            return found
        return self._patch_method(cls, attr, target, layer)

    def _hook_registration(self) -> None:
        from repro.core.api import PluginApi
        from repro.core.protoop import ProtoopTable

        tracer = self
        register, attach, detach = (ProtoopTable.register, ProtoopTable.attach,
                                    ProtoopTable.detach)
        helper_table = PluginApi.helper_table

        @functools.wraps(register)
        def traced_register(table, name, func=None, *args, **kwargs):
            if func is not None:
                func = tracer.wrap_behaviour(func, name)
            return register(table, name, func, *args, **kwargs)

        @functools.wraps(attach)
        def traced_attach(table, name, anchor, func, *args, **kwargs):
            wrapped = tracer.wrap_behaviour(func, f"{name}@{anchor.value}")
            if wrapped is not func:
                # detach() looks behaviours up by identity.
                table.__dict__.setdefault("_bench_wrapped", {})[
                    (name, anchor, func)] = wrapped
            return attach(table, name, anchor, wrapped, *args, **kwargs)

        @functools.wraps(detach)
        def traced_detach(table, name, anchor, func, *args, **kwargs):
            func = table.__dict__.get("_bench_wrapped", {}).pop(
                (name, anchor, func), func)
            return detach(table, name, anchor, func, *args, **kwargs)

        @functools.wraps(helper_table)
        def traced_helper_table(api):
            return {hid: tracer.wrap_behaviour(
                        fn, getattr(fn, "__name__", str(hid)))
                    for hid, fn in helper_table(api).items()}

        self._set(ProtoopTable, "register", traced_register)
        self._set(ProtoopTable, "attach", traced_attach)
        self._set(ProtoopTable, "detach", traced_detach)
        self._set(PluginApi, "helper_table", traced_helper_table)

    def install(self) -> None:
        """Patch every entry point.  Must run before any endpoint is
        built: bound methods captured earlier keep the unwrapped code."""
        for layer, targets in ENTRY_POINTS.items():
            for target in targets:
                if not self._patch(target, layer):
                    self.missing.append(target)
        self._hook_registration()

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def resolve_entry_points() -> list:
    """Entry points of the table that do not resolve against ``src/``."""
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    return tracer.missing
