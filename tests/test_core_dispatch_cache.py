"""Protoop dispatch: plan cache, re-entry guards, cost of a run.

The ``ProtoopTable`` precomputes one call plan per (protoop, param).
These tests pin the invalidation protocol: any anchor change —
``register``/``attach``/``detach``, including a containment-triggered
quarantine mid-connection — must drop stale plans, and a plan captured at
the start of a run must not fire anchors that were removed while the run
was in flight.  They also pin what invalidation must *not* touch (the
re-entry guard of an operation that is running) and, by counting Python
calls, what a run with nothing attached costs.
"""

import sys

import pytest

from repro.core import ContainmentPolicy, Plugin, PluginInstance, Pluglet
from repro.core.protoop import Anchor, ProtoopError, ProtoopTable
from repro.errors import TransportErrorCode
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm import assemble

LOOP = "top:\nja top\nexit"  # statically verifiable, never terminates


def make_table():
    table = ProtoopTable()
    table.register("greet", lambda conn, *a: "default")
    return table


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


def looping_plugin(name="org.x.spin", fuel=200):
    return Plugin(name, [
        Pluglet("spin", "packet_sent_event", "post", assemble(LOOP),
                fuel=fuel),
    ])


class TestPlanCache:
    def test_plan_built_once_and_reused(self):
        table = make_table()
        for _ in range(5):
            assert table.run(None, "greet") == "default"
        assert table.plan_builds == 1
        assert table.runs == 5

    def test_attach_invalidates_plan(self):
        table = make_table()
        table.run(None, "greet")
        fired = []
        table.attach("greet", Anchor.PRE, lambda conn, args: fired.append(1))
        assert table.run(None, "greet") == "default"
        assert fired == [1]
        assert table.plan_builds == 2

    def test_detach_invalidates_plan(self):
        table = make_table()
        fired = []
        table.attach("greet", Anchor.POST, lambda conn, args, res: fired.append(1))
        table.run(None, "greet")
        assert fired == [1]
        # detach expects the exact callable; re-fetch it from the op.
        post = table.get("greet").post[None][0]
        table.detach("greet", Anchor.POST, post)
        table.run(None, "greet")
        assert fired == [1]  # did not fire again

    def test_replace_attach_and_detach(self):
        table = make_table()
        assert table.run(None, "greet") == "default"

        def replacement(conn, *a):
            return "plugged"

        table.attach("greet", Anchor.REPLACE, replacement)
        assert table.run(None, "greet") == "plugged"
        table.detach("greet", Anchor.REPLACE, replacement)
        assert table.run(None, "greet") == "default"

    def test_known_params_tracks_attach(self):
        table = ProtoopTable()
        table.register("process_frame", lambda conn, *a: None, param=0x01,
                       parameterized=True)
        assert table.known_params("process_frame") == frozenset({0x01})
        table.attach("process_frame", Anchor.REPLACE,
                     lambda conn, *a: "new", param=0x42)
        assert 0x42 in table.known_params("process_frame")

    def test_has_behavior_follows_replacements(self):
        table = ProtoopTable()
        table.declare("event_hook")
        assert not table.has_behavior("event_hook")
        table.attach("event_hook", Anchor.REPLACE, lambda conn, *a: 1)
        assert table.has_behavior("event_hook")

    def test_midrun_detach_resolves_fresh_behavior(self):
        """A pre anchor that detaches the replacement mid-run must cause
        the default behaviour to run, exactly as uncached dispatch (which
        resolved the behaviour only after the pre chain) did."""
        table = make_table()

        def replacement(conn, *a):
            return "plugged"

        table.attach("greet", Anchor.REPLACE, replacement)

        def saboteur(conn, args):
            table.detach("greet", Anchor.REPLACE, replacement)

        table.attach("greet", Anchor.PRE, saboteur)
        assert table.run(None, "greet") == "default"

    def test_midrun_attach_of_post_fires(self):
        """Uncached dispatch snapshotted post anchors after the behaviour
        ran; a post attached by the behaviour itself therefore fired."""
        table = ProtoopTable()
        fired = []

        def behavior(conn, *a):
            table.attach("late", Anchor.POST,
                         lambda conn, args, res: fired.append(res))
            return "r"

        table.register("late", behavior)
        assert table.run(None, "late") == "r"
        assert fired == ["r"]


class TestQuarantineInvalidation:
    def test_quarantined_plugin_anchors_never_fire_again(self):
        """Containment detaches a faulting plugin mid-connection; the next
        dispatch must drop its plan and skip the stale post anchor."""
        conn = make_conn()
        ContainmentPolicy().attach(conn)
        inst = PluginInstance(looping_plugin(fuel=200), conn)
        inst.attach()
        table = conn.protoops
        table.has_behavior("packet_sent_event")  # resolves the plan
        stale = table._plans["packet_sent_event"]
        assert stale.post

        conn.protoops.run(conn, "packet_sent_event", None)
        assert not conn.closed
        assert not inst.attached
        executed_after_fault = inst.vms["spin"].instructions_executed
        assert executed_after_fault == 200  # fuel budget, fully charged

        conn.protoops.run(conn, "packet_sent_event", None)
        fresh = table._plans["packet_sent_event"]
        assert fresh is not stale and not fresh.post  # plan re-resolved...
        assert inst.vms["spin"].instructions_executed == executed_after_fault
        # ...and stays cached afterwards.
        builds = table.plan_builds
        conn.protoops.run(conn, "packet_sent_event", None)
        assert table.plan_builds == builds
        assert table._plans["packet_sent_event"] is fresh

    def test_attach_mid_connection_visible_immediately(self):
        conn = make_conn()
        table = conn.protoops
        # Warm the plan for the event with no plugins attached.
        table.run(conn, "packet_sent_event", None)
        seen = []
        counter = Plugin("org.x.count", [
            Pluglet("count", "packet_sent_event", "post",
                    assemble("mov r0, 1\nexit")),
        ])
        inst = PluginInstance(counter, conn)
        inst.attach()
        table.run(conn, "packet_sent_event", None)
        assert inst.vms["count"].instructions_executed > 0
        inst.detach()
        executed = inst.vms["count"].instructions_executed
        table.run(conn, "packet_sent_event", None)
        assert inst.vms["count"].instructions_executed == executed
        assert seen == []  # nothing unexpected fired


class TestPlanCorrectness:
    def test_loop_detection_survives_caching(self):
        table = ProtoopTable()

        def recurse(conn, *a):
            return table.run(conn, "selfcall")

        table.register("selfcall", recurse)
        with pytest.raises(Exception, match="loop"):
            table.run(None, "selfcall")

    def test_external_protoop_still_guarded(self):
        table = ProtoopTable()
        table.register("app_op", lambda conn, *a: "app", external=True)
        with pytest.raises(Exception, match="external"):
            table.run(None, "app_op")
        assert table.run_external(None, "app_op") == "app"


class TestReentryGuards:
    def test_guard_survives_midrun_invalidation(self):
        """A pre observer detaches itself — the epoch moves and every
        plan is dropped — then runs its own operation: still a loop."""
        table = make_table()
        seen = []

        def observer(conn, args):
            table.detach("greet", Anchor.PRE, observer)
            with pytest.raises(ProtoopError) as exc:
                table.run(conn, "greet")
            seen.append(exc.value.code)

        table.attach("greet", Anchor.PRE, observer)
        assert table.run(None, "greet") == "default"
        assert seen == [TransportErrorCode.PLUGIN_LOOP_DETECTED]
        assert table.run(None, "greet") == "default"  # released afterwards

    @pytest.mark.parametrize("anchor", [Anchor.PRE, Anchor.REPLACE, Anchor.POST])
    def test_exception_releases_guard(self, anchor):
        table = make_table()

        def boom(conn, *args):
            raise RuntimeError("pluglet failure")

        table.attach("greet", anchor, boom)
        with pytest.raises(RuntimeError):
            table.run(None, "greet")
        table.detach("greet", anchor, boom)
        assert table.run(None, "greet") == "default"

    def test_exception_in_bare_default_releases_guard(self):
        table = ProtoopTable()
        calls = []

        def flaky(conn):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first run fails")
            return "ok"

        table.register("flaky", flaky)
        with pytest.raises(RuntimeError):
            table.run(None, "flaky")
        assert table.run(None, "flaky") == "ok"

    def test_guard_is_per_parameter(self):
        table = ProtoopTable()

        def frame_a(conn, inner):
            return ("A", table.run(conn, "frame", inner))

        table.register("frame", frame_a, param="A", parameterized=True)
        table.register("frame", lambda conn: "B", param="B", parameterized=True)
        assert table.run(None, "frame", "A", "B") == ("A", "B")
        with pytest.raises(ProtoopError) as exc:
            table.run(None, "frame", "A", "A")
        assert exc.value.code == TransportErrorCode.PLUGIN_LOOP_DETECTED

    def test_stray_param_shares_the_plain_guard(self):
        table = ProtoopTable()
        table.register("plain", lambda conn: table.run(conn, "plain", "stray"))
        with pytest.raises(ProtoopError) as exc:
            table.run(None, "plain")
        assert exc.value.code == TransportErrorCode.PLUGIN_LOOP_DETECTED

    def test_guards_stay_per_connection_under_a_shared_plan(self):
        """Two connections run one shared plan: the operation running on
        A is no loop for B, and A entering it again still is."""
        seen = []

        class Hooked(QuicConnection):
            def _op_get_rtt(self, i=0):
                self.hook()
                return super()._op_get_rtt(i)

        config = QuicConfiguration(is_client=True)
        a, b = Hooked(config), Hooked(config)
        b.hook = lambda: seen.append("b ran")

        def reenter():
            b.protoops.run(b, "get_rtt", None, 0)
            with pytest.raises(ProtoopError) as exc:
                a.protoops.run(a, "get_rtt", None, 0)
            seen.append(exc.value.code)

        a.hook = reenter
        a.protoops.run(a, "get_rtt", None, 0)
        assert seen == ["b ran", TransportErrorCode.PLUGIN_LOOP_DETECTED]
        assert a.protoops._plans["get_rtt"] is b.protoops._plans["get_rtt"]
        a.hook = b.hook
        a.protoops.run(a, "get_rtt", None, 0)  # released afterwards
        assert seen[-1] == "b ran"


class TestUnobservedEvent:
    def test_counts_and_calls_nothing(self):
        table = ProtoopTable()
        table.declare("evt")
        assert table.run(None, "evt", None, 1, 2) is None
        assert table.run(None, "evt") is None
        assert table.runs == 2

    def test_still_refuses_external_misuse(self):
        table = ProtoopTable()
        table.register("app_evt", None, external=True)
        with pytest.raises(ProtoopError) as exc:
            table.run(None, "app_evt")
        assert exc.value.code == TransportErrorCode.PROTOCOL_VIOLATION
        assert table.runs == 0
        assert table.run_external(None, "app_evt") is None
        assert table.runs == 1


def python_calls_during(fn):
    """Python-level functions entered while ``fn()`` runs, as seen by
    ``sys.setprofile`` (C functions raise ``c_call``, not ``call``)."""
    entered = []

    def profiler(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered


class TestDispatchCostGate:
    """What a run costs, counted rather than timed: a helper function
    slipped back into the hot path fails here, not in a noisy benchmark."""

    def test_bare_default_enters_only_the_behaviour(self):
        table = make_table()
        greet = table.default("greet")
        table.run(None, "greet")  # build the plan
        entered = python_calls_during(lambda: table.run(None, "greet", None, 1))
        assert entered == ["<lambda>", "run", greet.__code__.co_name]

    def test_untouched_census_operation_enters_only_its_default(self):
        """The shared plan of a connection's census operation: the run
        reads it itself and calls the class's function, bound to
        nothing."""
        conn = make_conn()
        table = conn.protoops
        default = table.default("get_rtt")
        assert default is QuicConnection._op_get_rtt
        table.run(conn, "get_rtt", None, 0)  # the census builds the plan
        entered = python_calls_during(
            lambda: table.run(conn, "get_rtt", None, 0))
        assert entered == ["<lambda>", "run", default.__code__.co_name]

    def test_unobserved_event_enters_nothing(self):
        table = ProtoopTable()
        table.declare("evt")
        table.run(None, "evt")
        entered = python_calls_during(lambda: table.run(None, "evt", None, 1))
        assert entered == ["<lambda>", "run"]


def census_fingerprint(cls=QuicConnection):
    """Every row of a class census: its parameters' defaults and
    whether a run of each does anything but its default."""
    census = cls.protoop_census()
    return {
        name: (op.parameterized, op.external, op.doc,
               {param: census.default(name, param)
                for param in census.known_params(name)},
               census.untouched((name,)))
        for name, op in ((name, census.get(name)) for name in census.names)
    }


class TestClassCensus:
    """One census per connection class, shared by every connection of it:
    a connection owns only what was registered or attached to it."""

    def test_changes_on_one_connection_stay_on_it(self):
        from repro.core import PluginCache
        from repro.core.exchange import PLUGIN_TYPE, PluginExchanger

        before = census_fingerprint()
        a, b = make_conn(), make_conn()
        seen = []
        a.protoops.attach("select_sending_path", Anchor.REPLACE,
                          lambda conn: 7)
        a.protoops.attach("get_rtt", Anchor.PRE,
                          lambda conn, args: seen.append("pre"))
        a.protoops.attach("packet_sent_event", Anchor.POST,
                          lambda conn, args, res: seen.append("post"))
        PluginExchanger(a, PluginCache())
        ContainmentPolicy().attach(a)
        spin = PluginInstance(looping_plugin(fuel=50), a)
        spin.attach()

        for conn in (b, a):
            conn.protoops.run(conn, "get_rtt", None)
            conn.protoops.run(conn, "packet_sent_event", None)
        assert a.protoops.run(a, "select_sending_path", None) == 7
        assert b.protoops.run(b, "select_sending_path", None) == 0
        assert seen == ["pre", "post"]  # a's observers, once each
        assert not spin.attached  # quarantined on a
        assert PLUGIN_TYPE in a.protoops.known_params("process_frame")
        assert PLUGIN_TYPE not in b.protoops.known_params("process_frame")
        assert not b.protoops.has_behavior("process_frame", PLUGIN_TYPE)
        assert "plugin_quarantined" in a.protoops.names
        assert b.protoops.names == QuicConnection.protoop_census().names
        assert b.protoops.operation_count() == 72
        assert census_fingerprint() == before

    def test_subclass_override_is_its_connections_default(self):
        class PinnedPath(QuicConnection):
            def _op_select_sending_path(self):
                return 3

        config = QuicConfiguration(is_client=True)
        pinned, plain = PinnedPath(config), QuicConnection(config)
        assert pinned.protoops.run(pinned, "select_sending_path", None) == 3
        assert plain.protoops.run(plain, "select_sending_path", None) == 0
        assert PinnedPath.protoop_census() is not QuicConnection.protoop_census()
        assert (QuicConnection.protoop_census().default("select_sending_path")
                is QuicConnection._op_select_sending_path)
        assert PinnedPath.protoop_census().operation_count() == 72

    def test_post_attached_by_a_shared_default_fires_in_its_run(self):
        """A run on a shared plan re-reads the table's own anchors once
        it attached one."""
        fired = []

        class SelfObserving(QuicConnection):
            def _op_get_path(self, index):
                self.protoops.attach("get_path", Anchor.POST,
                                     lambda c, args, res: fired.append(args))
                return super()._op_get_path(index)

        conn = SelfObserving(QuicConfiguration(is_client=True))
        assert conn.protoops.run(conn, "get_path", None, 0) is conn.paths[0]
        assert fired == [(0,)]

    def test_a_handshake_registers_nothing(self, monkeypatch):
        from tests.test_quic_coalescing import exchange

        QuicConnection.protoop_census()  # built once per class, up front
        calls = []
        register = ProtoopTable.register

        def counting_register(table, *args, **kwargs):
            calls.append(args[0])
            return register(table, *args, **kwargs)

        monkeypatch.setattr(ProtoopTable, "register", counting_register)
        client = QuicConnection(QuicConfiguration(is_client=True))
        server = QuicConnection(QuicConfiguration(is_client=False))
        exchange(client, server)
        assert client.is_established and server.is_established
        assert calls == []


class TestAnchorSets:
    """A plugin's anchors are spliced into a table as its content's set,
    beside the table's own: what runs is as if each had been attached
    one by one, in order."""

    def counter(self, protoop="packet_sent_event", anchor="post"):
        return Plugin("org.x.count", [
            Pluglet("count", protoop, anchor, assemble("mov r0, 7\nexit"))])

    def test_own_and_plugin_observers_run_in_attach_order(self):
        conn = make_conn()
        table = conn.protoops
        seen = []
        inst = PluginInstance(self.counter(), conn)

        def before(conn_, args, result):
            seen.append(("before", inst.vms["count"].instructions_executed))

        def after(conn_, args, result):
            seen.append(("after", inst.vms["count"].instructions_executed))

        table.attach("packet_sent_event", Anchor.POST, before)
        inst.attach()
        table.attach("packet_sent_event", Anchor.POST, after)
        table.run(conn, "packet_sent_event", None)
        assert seen == [("before", 0), ("after", 2)]
        post = table.get("packet_sent_event").post[None]
        assert len(post) == 3 and post[0] is before and post[2] is after
        inst.detach()
        table.run(conn, "packet_sent_event", None)
        assert seen[2:] == [("before", 2), ("after", 2)]
        assert table.get("packet_sent_event").post[None] == [before, after]

    def test_an_operation_a_plugin_introduced_stays_known(self):
        conn = make_conn()
        inst = PluginInstance(self.counter("x_new_op", "replace"), conn)
        inst.attach()
        assert "x_new_op" in conn.protoops.names
        assert conn.protoops.run(conn, "x_new_op", None) == 7
        inst.detach()
        assert conn.protoops.run(conn, "x_new_op", None) is None
        assert "x_new_op" in conn.protoops.names
        assert "x_new_op" not in make_conn().protoops.names

    def test_a_second_plugin_of_an_attached_name_is_refused(self):
        conn = make_conn()
        first = PluginInstance(self.counter(), conn)
        first.attach()
        with pytest.raises(ProtoopError, match="attached already"):
            PluginInstance(self.counter(), conn).attach()
        assert conn.plugins["org.x.count"] is first
        conn.protoops.run(conn, "packet_sent_event", None)
        assert first.vms["count"].instructions_executed == 2
