"""Set-up as deterministic counts (§2.5): what a connection's set-up does
once the process has seen the connection class and the plugin's code.

A fresh client/server handshake, a cached monitoring injection into a
fresh connection, a plugin exchanger set up on one, and a client/server
pair with monitoring and multipath on both ends, each run once to warm
the process and counted the second time: call plans built from scratch,
protoop rows and census rows copied into a connection's table, anchor
behaviours made, plan invalidations, effect-summary passes, bytecode
encodings and VM shells.  Counts, not timings, so they hold on any host
and under either ``REPRO_JIT`` value.
"""

import pytest

import repro.core.plugin as plugin_module
import repro.vm.compiler as compiler_module
import repro.vm.isa as isa_module
from repro.core import (
    ContainmentPolicy,
    Plugin,
    PluginCache,
    PluginInstance,
    Pluglet,
)
from repro.core.exchange import PluginExchanger
from repro.core.protoop import (
    CallPlan,
    ProtocolOperation,
    ProtoopError,
    ProtoopTable,
)
from repro.errors import TransportErrorCode
from repro.plugins import build_monitoring_plugin, build_multipath_plugin
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.secure import PluginValidator, SignedTreeRoot
from repro.vm import assemble
from repro.vm.interpreter import VirtualMachine
from tests.test_quic_coalescing import exchange

MONITORING = "org.pquic.monitoring"


@pytest.fixture
def counts(monkeypatch):
    """Counting wrappers around each piece of set-up work."""
    seen = dict.fromkeys(("plans", "rows", "anchors", "invalidations",
                          "summaries", "encodings", "shells"), 0)

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            seen[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(CallPlan, "__init__", "plans")
    count(ProtocolOperation, "__init__", "rows")
    count(plugin_module, "_anchor", "anchors")
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


NOTHING = {"plans": 0, "rows": 0, "anchors": 0, "invalidations": 0,
           "summaries": 0, "encodings": 0, "shells": 0, "rows copied": 0}


def test_a_handshake_builds_no_plan_and_copies_no_row(counts):
    assert counted(handshake, counts) == NOTHING


def test_a_cached_injection_does_only_per_connection_work(counts):
    cache = PluginCache()
    cache.store(build_monitoring_plugin())
    # One invalidation for the whole attach; the plans (the
    # `plugin_analyzed` event's too) are shared, and no pluglet ran, so
    # no shell was built.
    assert counted(lambda: cached_injection(cache), counts) == {
        **NOTHING, "invalidations": 1}


def test_a_new_plugin_object_of_known_code_derives_nothing(counts):
    assert counted(known_code_injection, counts) == {
        **NOTHING, "invalidations": 1}


def test_a_plugin_exchanger_registers_as_one_change(counts):
    # Six registrations and two attaches: 8 invalidations, one each,
    # before they were made as one change.  Its behaviours are its own,
    # held in rows of the connection's table.
    assert counted(exchanger_setup, counts) == {
        **NOTHING, "invalidations": 1, "rows": 4}


def test_a_validator_epoch_over_known_bytes_makes_one_str_and_no_pluglet(
        monkeypatch):
    """A decode hit is a copy whose pluglets nothing reads, and the root
    is signed as one STR: once 14 pluglets (monitoring's, rebuilt by
    every hit) and 2 STRs (an unsigned one, to sign its payload)."""
    wire = build_monitoring_plugin().serialize()
    PluginValidator("PV0", seed=0).run_epoch({MONITORING: wire}, 1)
    made = {"pluglets": 0, "strs": 0}

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            made[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(Pluglet, "__init__", "pluglets")
    count(Pluglet, "copy", "pluglets")
    count(SignedTreeRoot, "__init__", "strs")
    PluginValidator("PV1", seed=1).run_epoch({MONITORING: wire}, 1)
    assert made == {"pluglets": 0, "strs": 1}


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
    assert len(table._running) == len(slots)  # no guard of its own
    fresh = QuicConnection(QuicConfiguration(is_client=True)).protoops
    assert len(fresh._running) == len(slots)


PAIR_PLUGINS = (build_monitoring_plugin, build_multipath_plugin)


def plugged_handshake():
    """A client/server pair with monitoring and multipath on both ends,
    through its handshake."""
    client = QuicConnection(QuicConfiguration(is_client=True))
    server = QuicConnection(QuicConfiguration(is_client=False))
    for conn in (client, server):
        for build in PAIR_PLUGINS:
            PluginInstance(build(), conn).attach()
    exchange(client, server)
    assert client.is_established and server.is_established
    return [client, server]


def test_a_plugged_handshake_shares_its_plans_and_builds_run_shells(
        counts, monkeypatch):
    """The second pair attaching the same plugin contents in the same
    order builds no plan — for touched operations neither — makes no
    protoop row and no anchor behaviour, and builds the shell of each
    pluglet that ran, no other.  (Before anchors were content: 27 plans,
    44 rows, 50 anchor closures and 50 shells.)"""
    ran = set()
    invoke = PluginInstance.invoke

    def recording(instance, pluglet, args, writable):
        ran.add((id(instance), pluglet.name))
        return invoke(instance, pluglet, args, writable)

    monkeypatch.setattr(PluginInstance, "invoke", recording)
    seen = counted(lambda: (ran.clear(), plugged_handshake())[1], counts)
    # One invalidation per attach.
    assert seen == {**NOTHING, "invalidations": 4, "shells": len(ran)}
    assert len(ran) == 25


def test_plugged_pairs_run_the_same_plans():
    """Connections that attached the same contents in the same order run
    one plan per operation, touched or not; the guards stay each
    table's own."""
    first, second = plugged_handshake(), plugged_handshake()
    for a, b in zip(first, second):
        shared = a.protoops._plans.keys() & b.protoops._plans.keys()
        assert "select_sending_path" in shared and "packet_sent_event" in shared
        for run_key in shared:
            assert a.protoops._plans[run_key] is b.protoops._plans[run_key]
        assert a.protoops._running is not b.protoops._running


#: A post observer of `get_rtt` dividing by the path index it is given:
#: a run with index 0 faults.
DIVIDE = "mov r0, 1\ndiv r0, r1\nexit"


def dividing_plugin():
    return Plugin("org.x.divide", [
        Pluglet("divide", "get_rtt", "post", assemble(DIVIDE))])


class TestReentryGuardsUnderASharedTouchedPlan:
    """Two connections run one plan of an operation a plugin observes:
    the operation running on A is no loop on B, and quarantining the
    plugin on A moves A alone off the shared plans."""

    def make(self):
        seen = []

        class Hooked(QuicConnection):
            def _op_get_rtt(self, i=0):
                self.hook()
                return super()._op_get_rtt(0)  # one path; `i` is the divisor

        config = QuicConfiguration(is_client=True)
        a, b = Hooked(config), Hooked(config)
        a.hook = b.hook = lambda: seen.append("ran")
        instances = [PluginInstance(dividing_plugin(), conn)
                     for conn in (a, b)]
        for instance in instances:
            instance.attach()
        return a, b, instances, seen

    def test_running_on_a_is_no_loop_on_b(self):
        a, b, (on_a, on_b), seen = self.make()

        def reenter():
            b.protoops.run(b, "get_rtt", None, 1)
            with pytest.raises(ProtoopError) as exc:
                a.protoops.run(a, "get_rtt", None, 1)
            seen.append(exc.value.code)

        a.hook = reenter
        a.protoops.run(a, "get_rtt", None, 1)
        assert seen == ["ran", TransportErrorCode.PLUGIN_LOOP_DETECTED]
        plan = a.protoops._plans["get_rtt"]
        assert plan is b.protoops._plans["get_rtt"] and plan.post
        assert on_a.vms["divide"].instructions_executed == 3
        assert on_b.vms["divide"].instructions_executed == 3
        a.hook = b.hook
        a.protoops.run(a, "get_rtt", None, 1)  # released afterwards
        assert on_a.vms["divide"].instructions_executed == 6

    def test_quarantine_on_a_leaves_b_as_it_was(self):
        a, b, (on_a, on_b), seen = self.make()
        ContainmentPolicy().attach(a)
        b.protoops.run(b, "get_rtt", None, 1)
        plan = b.protoops._plans["get_rtt"]
        assert a.protoops.run(a, "get_rtt", None, 1) is not None
        assert a.protoops._plans["get_rtt"] is plan

        a.protoops.run(a, "get_rtt", None, 0)  # divides by zero on A
        assert not on_a.attached and not a.closed
        assert "org.x.divide" not in a.plugins
        a.protoops.run(a, "get_rtt", None, 1)
        assert a.protoops._plans["get_rtt"] is not plan
        assert not a.protoops._plans["get_rtt"].post
        assert on_a.vms["divide"].instructions_executed == 5  # 3 + 2, faulted

        assert on_b.attached and b.plugins["org.x.divide"] is on_b
        assert b.protoops._plans["get_rtt"] is plan
        b.protoops.run(b, "get_rtt", None, 1)
        assert b.protoops._plans["get_rtt"] is plan
        assert on_b.vms["divide"].instructions_executed == 6
        assert not b.closed
