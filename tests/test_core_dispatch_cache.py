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
        dispatch must rebuild its plan and skip the stale post anchor."""
        conn = make_conn()
        ContainmentPolicy().attach(conn)
        inst = PluginInstance(looping_plugin(fuel=200), conn)
        inst.attach()
        table = conn.protoops

        conn.protoops.run(conn, "packet_sent_event", None)
        assert not conn.closed
        assert not inst.attached
        executed_after_fault = inst.vms["spin"].instructions_executed
        assert executed_after_fault == 200  # fuel budget, fully charged

        builds = table.plan_builds
        conn.protoops.run(conn, "packet_sent_event", None)
        assert table.plan_builds > builds  # plan was rebuilt...
        assert inst.vms["spin"].instructions_executed == executed_after_fault
        # ...and stays cached afterwards.
        builds = table.plan_builds
        conn.protoops.run(conn, "packet_sent_event", None)
        assert table.plan_builds == builds

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
        greet = table.get("greet").defaults[None]
        table.run(None, "greet")  # build the plan
        entered = python_calls_during(lambda: table.run(None, "greet", None, 1))
        assert entered == ["<lambda>", "run", greet.__code__.co_name]

    def test_unobserved_event_enters_nothing(self):
        table = ProtoopTable()
        table.declare("evt")
        table.run(None, "evt")
        entered = python_calls_during(lambda: table.run(None, "evt", None, 1))
        assert entered == ["<lambda>", "run"]
