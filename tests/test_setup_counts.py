"""Set-up as deterministic counts (§2.5): what a connection's set-up does
once the process has seen the connection class and the plugin's code.

A fresh client/server handshake, a cached monitoring injection into a
fresh connection and a plugin exchanger set up on one, each run once to
warm the process and counted the second time: call plans built from scratch, census rows copied into a
connection's table, plan invalidations, effect-summary passes, bytecode
encodings and VM shells.  Counts, not timings, so they hold on any host
and under either ``REPRO_JIT`` value.
"""

import pytest

import repro.core.plugin as plugin_module
import repro.vm.compiler as compiler_module
import repro.vm.isa as isa_module
from repro.core import PluginCache, PluginInstance
from repro.core.exchange import PluginExchanger
from repro.core.protoop import CallPlan, ProtoopTable
from repro.plugins import build_monitoring_plugin
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm.interpreter import VirtualMachine
from tests.test_quic_coalescing import exchange

MONITORING = "org.pquic.monitoring"


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers around each piece of set-up work."""
    seen = dict.fromkeys(("plans", "invalidations", "summaries",
                          "encodings", "shells"), 0)

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            seen[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(CallPlan, "__init__", "plans")
    count(ProtoopTable, "_invalidate", "invalidations")
    count(plugin_module, "summarize_plugin", "summaries")
    for module in (plugin_module, compiler_module, isa_module):
        count(module, "encode_program", "encodings")
    count(VirtualMachine, "__init__", "shells")
    return seen


def rows_copied(conns) -> int:
    """Rows of a connection's table that carry a census default: a
    census row copied in, rather than the table's own anchors."""
    census = QuicConnection.protoop_census()
    copied = 0
    for conn in conns:
        table = conn.protoops
        for name, op in table._ops.items():
            if name in census.names and any(
                    getattr(func, "__func__", func)
                    is census.default(name, key)
                    for key, func in op.defaults.items()):
                copied += 1
    return copied


def handshake():
    client = QuicConnection(QuicConfiguration(is_client=True))
    server = QuicConnection(QuicConfiguration(is_client=False))
    exchange(client, server)
    assert client.is_established and server.is_established
    return [client, server]


def cached_injection(cache):
    conn = QuicConnection(QuicConfiguration(is_client=True))
    cache.instantiate(MONITORING, conn).attach()
    return [conn]


def known_code_injection():
    conn = QuicConnection(QuicConfiguration(is_client=True))
    PluginInstance(build_monitoring_plugin(), conn).attach()
    return [conn]


def exchanger_setup():
    conn = QuicConnection(QuicConfiguration(is_client=True))
    PluginExchanger(conn, PluginCache())
    return [conn]


def counted(case, counts) -> dict:
    case()  # the process has now seen the class and the code
    counts.update(dict.fromkeys(counts, 0))
    conns = case()
    return {**counts, "rows copied": rows_copied(conns)}


NOTHING = {"plans": 0, "invalidations": 0, "summaries": 0, "encodings": 0,
           "shells": 0, "rows copied": 0}


def test_a_handshake_builds_no_plan_and_copies_no_row(counts):
    assert counted(handshake, counts) == NOTHING


def test_a_cached_injection_does_only_per_connection_work(counts):
    cache = PluginCache()
    cache.store(build_monitoring_plugin())
    # One invalidation for the whole attach, one plan for the
    # connection's own `plugin_analyzed` event, one shell per pluglet.
    assert counted(lambda: cached_injection(cache), counts) == {
        **NOTHING, "plans": 1, "invalidations": 1, "shells": 14}


def test_a_new_plugin_object_of_known_code_derives_nothing(counts):
    assert counted(known_code_injection, counts) == {
        **NOTHING, "plans": 1, "invalidations": 1, "shells": 14}


def test_a_plugin_exchanger_registers_as_one_change(counts):
    # Six registrations and two attaches: 8 invalidations, one each,
    # before they were made as one change.
    assert counted(exchanger_setup, counts) == {
        **NOTHING, "invalidations": 1}


def test_the_connections_share_the_untouched_plans():
    conns = handshake() + handshake()
    census = QuicConnection.protoop_census()
    for conn in conns:
        for run_key, plan in conn.protoops._plans.items():
            assert plan is (census._class_plans.get(run_key)
                            or census._null_plans[plan.name])


def test_parameters_off_the_wire_leave_the_census_as_it_was():
    """A frame type no default handles is asked about per frame; the
    census keeps one plan for all of them, and no guard slot."""
    client, _server = handshake()
    census = QuicConnection.protoop_census()
    plans, slots = dict(census._class_plans), dict(census._numbered())
    table = client.protoops
    for frame_type in range(0x1000, 0x1400):
        assert not table.has_behavior("parse_frame", frame_type)
    assert census._class_plans == plans and census._numbered() == slots
    assert not table._own_slots
    fresh = QuicConnection(QuicConfiguration(is_client=True)).protoops
    assert len(fresh._running) == len(slots)
