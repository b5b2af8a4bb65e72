"""The bundled plugins reach their connection through one declared
surface, ``PluginRuntime.SURFACE``, and that surface holds against a
hostile peer: it bounds the paths a plugin opens, and a malformed plugin
frame closes the connection with FRAME_ENCODING_ERROR like a malformed
core frame."""

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.plugins  # noqa: F401  (declares every bundled HostBinding)
from repro.core.plugin import HOST_BINDINGS, MAX_PATHS, PluginRuntime
from repro.errors import TransportError, TransportErrorCode
from repro.netsim import Simulator, symmetric_topology
from repro.netsim.node import Datagram
from repro.plugins.codec import parse_frame
from repro.plugins.multipath import PLUGIN_NAME, AddAddressFrame
from repro.quic import ReservedFrame
from repro.quic.wire import Buffer

from tests.test_plugins_multipath import setup_pair, transfer

PLUGINS = Path(__file__).resolve().parent.parent / "src" / "repro" / "plugins"

#: The classes an application uses, which hold a connection: they keep
#: to its public application API.
APP_CLASSES = {"DatagramSocket", "MonitoringCollector"}
APP_API = {"plugins", "message_handlers", "run_external_protoop"}


def boundary_violations(root: Path) -> list:
    """``path:line: what`` for every place under ``root`` a plugin's host
    side reaches past the surface."""
    found = []

    def visit(node, path, app_class):
        if isinstance(node, ast.ClassDef):
            app_class = node.name in APP_CLASSES
        where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            found.extend(f"{where}: imports {m}" for m in modules
                         if m.startswith("repro.quic.connection"))
        if isinstance(node, ast.Name) and node.id == "conn" \
                and not app_class:
            found.append(f"{where}: uses conn")
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            if node.attr == "conn" and not app_class:
                found.append(f"{where}: reads .conn")
            if node.attr.startswith("_") and not node.attr.endswith("__") \
                    and not (isinstance(base, ast.Name)
                             and base.id in ("self", "cls")):
                found.append(f"{where}: reads {node.attr}")
            if app_class and node.attr not in APP_API and (
                    isinstance(base, ast.Name) and base.id == "conn"
                    or isinstance(base, ast.Attribute) and base.attr == "conn"):
                found.append(f"{where}: app class reads conn.{node.attr}")
            if isinstance(base, ast.Name) and base.id == "runtime" \
                    and node.attr not in RUNTIME_NAMES:
                found.append(f"{where}: reads runtime.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, app_class)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, False)
    return found


#: What a host function may read off its runtime: the surface, its own
#: invocation state, and state its plugin's ``setup`` put there.
RUNTIME_NAMES = set(PluginRuntime.SURFACE) | {
    "context", "plugin", "plugin_name", "set_result", "fec_state"}


class TestBoundary:
    def test_plugins_reach_the_connection_only_through_the_surface(self):
        assert boundary_violations(PLUGINS) == []

    def test_the_check_sees_a_reach_past_the_surface(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "from repro.quic.connection import ReservedFrame\n"
            "def h(runtime, vm):\n"
            "    conn = runtime.conn\n"
            "    conn._process_ack_frame(conn, None, {})\n"
            "    return runtime.memory\n"
            "class DatagramSocket:\n"
            "    def send(self):\n"
            "        return self.conn.paths\n")
        assert [v.split(": ", 1)[1] for v in boundary_violations(tmp_path)] \
            == ["imports repro.quic.connection", "uses conn", "reads .conn",
                "reads runtime.conn", "reads _process_ack_frame", "uses conn",
                "uses conn", "reads runtime.memory",
                "app class reads conn.paths"]

    def test_the_surface_is_small_and_documented(self):
        assert len(PluginRuntime.SURFACE) <= 15
        for name in PluginRuntime.SURFACE:
            assert not name.startswith("_")
            assert getattr(PluginRuntime, name).__doc__, name


def multipath_pair():
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10)
    client, server, state = setup_pair(sim, topo)
    sim.run(until=sim.now + 0.5)
    assert len(state["sconn"].paths) == 2
    return sim, topo, client, state


class TestPathBound:
    def test_spoofed_sources_open_at_most_max_paths(self):
        """Undecryptable short-header datagrams carrying the server's CID
        from 200 source addresses: the server maps each new address pair
        to a path before the packet authenticates."""
        sim, topo, client, state = multipath_pair()
        sconn = state["sconn"]
        junk = bytes([0x40]) + sconn.local_cid + bytes(40)
        iface = topo.client.interfaces[0]
        for i in range(200):
            iface.send(Datagram(f"spoof.{i}", 6000, "server.0", 443, junk))
        sim.run(until=sim.now + 0.5)
        assert 2 < len(sconn.paths) <= MAX_PATHS
        assert transfer(sim, client, state, 200_000) == 200_000
        assert len(sconn.paths) <= MAX_PATHS

    def test_add_address_flood_opens_at_most_max_paths(self):
        sim, topo, client, state = multipath_pair()
        client.conn.reserve_frames([
            ReservedFrame(AddAddressFrame(address=f"elsewhere.{i}",
                                          address_id=10 + i), PLUGIN_NAME)
            for i in range(300)])
        client.pump()
        sim.run(until=sim.now + 0.5)
        assert len(state["sconn"].paths) == MAX_PATHS
        assert transfer(sim, client, state, 200_000) == 200_000
        assert len(state["sconn"].paths) == MAX_PATHS


@dataclass
class RawAddAddressFrame(AddAddressFrame):
    """ADD_ADDRESS whose address is raw bytes, UTF-8 or not."""

    raw: bytes = b""

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint(self.address_id)
        buf.push_varint_prefixed_bytes(self.raw)


class TestPluginFrameDecoding:
    def test_address_not_utf8_closes_with_frame_encoding_error(self):
        sim, topo, client, state = multipath_pair()
        client.conn.reserve_frames([ReservedFrame(
            RawAddAddressFrame(address_id=7, raw=b"\xff\xfe"), PLUGIN_NAME)])
        client.pump()
        assert sim.run_until(lambda: state["sconn"].close_error is not None,
                             timeout=5)
        code, _reason = state["sconn"].close_error
        assert code == TransportErrorCode.FRAME_ENCODING_ERROR
        assert sim.run_until(lambda: client.conn.closed, timeout=5)

    #: Every frame class a bundled plugin declares.
    FRAMES = sorted({(t, binding.prefix) for binding in HOST_BINDINGS.values()
                     for t in binding.frames})

    @seed(int(os.environ.get("REPRO_CHAOS_SEED", "20261017")))
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FRAMES), st.binary(max_size=64))
    def test_random_bytes_parse_or_raise_a_transport_error(self, frame, data):
        """The nightly chaos job sets ``REPRO_CHAOS_SEED``, so each night
        decodes different bytes; tier 1 keeps the default."""
        frame_type, prefix = frame
        parsed = []
        runtime = SimpleNamespace(
            context=SimpleNamespace(raw_args=(Buffer(data), frame_type)),
            plugin=SimpleNamespace(host=HOST_BINDINGS[prefix]),
            set_result=parsed.append)
        try:
            parse_frame(runtime, None, 0)
        except TransportError:
            return
        assert type(parsed[0]).type == frame_type
