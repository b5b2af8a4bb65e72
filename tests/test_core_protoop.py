"""Protocol operation table tests: anchors, parameters, loop detection."""

import pytest

from repro.core.protoop import Anchor, ProtoopError, ProtoopTable
from repro.errors import TransportErrorCode


class FakeConn:
    pass


CONN = FakeConn()


def make_table():
    return ProtoopTable()


def test_register_and_run_default():
    t = make_table()
    t.register("double", lambda conn, x: x * 2)
    assert t.run(CONN, "double", None, 21) == 42


def test_unknown_protoop_raises():
    t = make_table()
    with pytest.raises(ProtoopError):
        t.run(CONN, "nope", None)


def test_parameterized_dispatch():
    t = make_table()
    t.register("process_frame", lambda conn, f: "ack", param="ACK", parameterized=True)
    t.register("process_frame", lambda conn, f: "stream", param="STREAM", parameterized=True)
    assert t.run(CONN, "process_frame", "ACK", object()) == "ack"
    assert t.run(CONN, "process_frame", "STREAM", object()) == "stream"


def test_duplicate_default_rejected():
    t = make_table()
    t.register("op", lambda conn: 1)
    with pytest.raises(ValueError):
        t.register("op", lambda conn: 2)


def test_param_on_unparameterized_rejected():
    t = make_table()
    with pytest.raises(ValueError):
        t.register("op", lambda conn: 1, param="X")


def test_replace_overrides_default():
    t = make_table()
    t.register("op", lambda conn: "builtin")
    t.attach("op", Anchor.REPLACE, lambda conn: "pluglet")
    assert t.run(CONN, "op", None) == "pluglet"


def test_second_replace_rejected():
    """§2.2: at most one pluglet can replace a given protocol operation."""
    t = make_table()
    t.register("op", lambda conn: "builtin")
    t.attach("op", Anchor.REPLACE, lambda conn: "first")
    with pytest.raises(ProtoopError) as exc:
        t.attach("op", Anchor.REPLACE, lambda conn: "second")
    assert exc.value.code == TransportErrorCode.PLUGIN_VALIDATION_FAILED


def test_replace_per_parameter_independent():
    t = make_table()
    t.register("pf", lambda conn, f: "a", param="A", parameterized=True)
    t.register("pf", lambda conn, f: "b", param="B", parameterized=True)
    t.attach("pf", Anchor.REPLACE, lambda conn, f: "A'", param="A")
    assert t.run(CONN, "pf", "A", None) == "A'"
    assert t.run(CONN, "pf", "B", None) == "b"


def test_pre_post_observers_fire_in_order():
    t = make_table()
    events = []
    t.register("op", lambda conn, x: events.append("body") or x + 1)
    t.attach("op", Anchor.PRE, lambda conn, args: events.append(("pre", args)))
    t.attach("op", Anchor.POST, lambda conn, args, res: events.append(("post", res)))
    result = t.run(CONN, "op", None, 1)
    assert result == 2
    assert events == [("pre", (1,)), "body", ("post", 2)]


def test_multiple_passive_pluglets_allowed():
    """§2.2: any number of pre and post pluglets can be inserted."""
    t = make_table()
    t.register("op", lambda conn: None)
    hits = []
    for i in range(5):
        t.attach("op", Anchor.PRE, lambda conn, args, i=i: hits.append(i))
    t.run(CONN, "op", None)
    assert hits == [0, 1, 2, 3, 4]


def test_detach_removes_observer():
    t = make_table()
    t.register("op", lambda conn: None)
    hits = []
    obs = lambda conn, args: hits.append(1)
    t.attach("op", Anchor.PRE, obs)
    t.detach("op", Anchor.PRE, obs)
    t.run(CONN, "op", None)
    assert hits == []


def test_detach_replace_restores_default():
    t = make_table()
    t.register("op", lambda conn: "builtin")
    repl = lambda conn: "pluglet"
    t.attach("op", Anchor.REPLACE, repl)
    t.detach("op", Anchor.REPLACE, repl)
    assert t.run(CONN, "op", None) == "builtin"


def test_new_protoop_via_attach():
    """§2.3: plugins can provide protocol operations absent from the
    original implementation."""
    t = make_table()
    t.attach("brand_new_op", Anchor.REPLACE, lambda conn, x: x * 3)
    assert t.run(CONN, "brand_new_op", None, 3) == 9


def test_new_parameter_value_via_attach():
    t = make_table()
    t.register("pf", lambda conn: "known", param="K", parameterized=True)
    t.attach("pf", Anchor.REPLACE, lambda conn: "new!", param="N")
    assert t.run(CONN, "pf", "N") == "new!"


def test_empty_anchor_declaration_runs_observers_only():
    t = make_table()
    t.declare("packet_lost_event")
    hits = []
    t.attach("packet_lost_event", Anchor.POST, lambda conn, args, res: hits.append(args))
    assert t.run(CONN, "packet_lost_event", None, "pkt") is None
    assert hits == [("pkt",)]


def test_emit_declares_extension_operations_on_first_run():
    t = make_table()
    t.emit(CONN, "lifecycle_event", "x")
    assert t.names == ["lifecycle_event"]  # declared, not counted before
    # An observer may create the operation first; a default still joins it.
    hits = []
    t.attach("undo", Anchor.POST, lambda conn, args, res: hits.append(res))
    assert t.emit(CONN, "undo", 2, default=lambda conn, x: x + 1) == 3
    assert t.emit(CONN, "undo", 5, default=lambda conn, x: -x) == 6
    assert hits == [3, 6]


def test_loop_detection_direct_recursion():
    t = make_table()
    t.register("a", lambda conn: t.run(conn, "a", None))
    with pytest.raises(ProtoopError) as exc:
        t.run(CONN, "a", None)
    assert exc.value.code == TransportErrorCode.PLUGIN_LOOP_DETECTED


def test_loop_detection_mutual_recursion():
    """Figure 3d: combining two legitimate plugins can create a B->C->B
    loop, which must be detected at run time."""
    t = make_table()
    t.register("A", lambda conn: t.run(conn, "B", None))
    t.register("B", lambda conn: "B done")
    t.register("C", lambda conn: t.run(conn, "B", None))
    # plugin p1 makes B call C; plugin p2 makes C call B (via replace).
    t.attach("B", Anchor.REPLACE, lambda conn: t.run(conn, "C", None))
    with pytest.raises(ProtoopError) as exc:
        t.run(CONN, "A", None)
    assert exc.value.code == TransportErrorCode.PLUGIN_LOOP_DETECTED


def test_acyclic_nested_calls_allowed():
    t = make_table()
    t.register("outer", lambda conn: t.run(conn, "inner", None) + 1)
    t.register("inner", lambda conn: 41)
    assert t.run(CONN, "outer", None) == 42


def test_sequential_calls_to_same_op_allowed():
    t = make_table()
    calls = []
    t.register("op", lambda conn: calls.append(1))
    t.run(CONN, "op", None)
    t.run(CONN, "op", None)
    assert len(calls) == 2


def test_call_stack_unwinds_after_error():
    t = make_table()

    def boom(conn):
        raise RuntimeError("inner failure")

    t.register("op", boom)
    with pytest.raises(RuntimeError):
        t.run(CONN, "op", None)
    # The op is callable again: the stack unwound.
    t.detach("op", Anchor.REPLACE, boom)
    with pytest.raises(RuntimeError):
        t.run(CONN, "op", None)


def test_external_op_blocked_from_protocol():
    """§2.4: external protoops are only executable by the application."""
    t = make_table()
    t.register("send_message", lambda conn, m: f"queued {m}", external=True)
    assert t.run_external(CONN, "send_message", None, "x") == "queued x"
    with pytest.raises(ProtoopError):
        t.run(CONN, "send_message", None, "x")


def test_external_op_not_callable_from_internal_op():
    t = make_table()
    t.register("ext", lambda conn: "x", external=True)
    t.register("internal", lambda conn: t.run(conn, "ext", None))
    with pytest.raises(ProtoopError):
        t.run(CONN, "internal", None)


def test_counts():
    t = make_table()
    t.register("a", lambda conn: None)
    t.register("pf", lambda conn: None, param="X", parameterized=True)
    t.declare("evt")
    assert t.operation_count() == 3
    assert t.parameterized_count() == 1
    assert t.names == ["a", "evt", "pf"]


def test_run_counter_increments():
    t = make_table()
    t.register("op", lambda conn: None)
    t.run(CONN, "op", None)
    t.run(CONN, "op", None)
    assert t.runs == 2


class TestUntouched:
    """``untouched(names)``: may a caller skip running these operations
    when it can prove their defaults are no-ops?"""

    NAMES = ("first", "second")

    def table(self):
        t = make_table()
        t.register("first", lambda conn: 1)
        t.declare("second")
        return t

    def test_defaults_alone_are_untouched(self):
        t = self.table()
        assert t.untouched(self.NAMES)
        assert t.untouched(("first", "never_registered"))

    @pytest.mark.parametrize("anchor", list(Anchor))
    @pytest.mark.parametrize("name", NAMES)
    def test_any_anchor_on_any_name_touches_and_detach_restores(
            self, name, anchor):
        t = self.table()

        def fn(conn, *args):
            return None

        assert t.untouched(self.NAMES)
        t.attach(name, anchor, fn)
        assert not t.untouched(self.NAMES)
        assert t.untouched(tuple(n for n in self.NAMES if n != name))
        t.detach(name, anchor, fn)
        assert t.untouched(self.NAMES)

    def test_parameterized_attachment_touches(self):
        t = make_table()
        t.register("process_frame", lambda conn, f: None, param=1,
                   parameterized=True)
        assert t.untouched(("process_frame",))
        t.attach("process_frame", Anchor.POST, lambda c, a, r: None, param=2)
        assert not t.untouched(("process_frame",))

    def test_run_counting_touches_everything(self):
        t = self.table()
        t.enable_run_counting()
        assert not t.untouched(self.NAMES)
        t.disable_run_counting()
        assert t.untouched(self.NAMES)

    def test_verdict_is_resolved_once_per_epoch(self):
        t = self.table()
        assert t.untouched(self.NAMES)
        assert t._untouched == {self.NAMES: True}
        t.register("third", lambda conn: 3)  # a new name changes no plan
        assert t._untouched == {self.NAMES: True}
        t.register("second", lambda conn: 2)  # any invalidation drops it
        assert t._untouched == {}
