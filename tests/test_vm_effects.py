"""Interprocedural analysis tests: effect summaries, cross-plugin
conflict detection (PRE200+), the protoop trigger call graph, and static
fuel certificates feeding the JIT's fuel-check elision."""

import pytest

from repro.core import Plugin, Pluglet, PluginInstance
from repro.core.api import (
    FIELD_NAMES,
    FLD_CWND,
    FLD_SRTT_US,
    FLD_SPIN_BIT,
    H_RUN_PROTOOP,
    HELPER_EFFECTS,
)
from repro.core.protoop import ProtoopError
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm.analysis import (
    ProtoopCallGraph,
    Severity,
    analyze,
    check_conflicts,
    check_plugin_set,
    summarize_plugin,
    summarize_pluglet,
)
from repro.vm.asm import assemble
from repro.vm import PluginMemory
from repro.vm.interpreter import FuelExhausted
from repro.vm.jit import JitVirtualMachine, load_jit


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


def _plugin(name, pluglets, memory_size=4096):
    return Plugin(name, pluglets, memory_size=memory_size)


def _reader(fid, name="reader", protoop="update_rtt", anchor="post"):
    return Pluglet(name, protoop, anchor, assemble(f"""
        mov r1, {fid}
        call 1      ; get
        exit
    """))


def _writer(fid, name="writer", protoop="update_rtt", anchor="post"):
    return Pluglet(name, protoop, anchor, assemble(f"""
        mov r1, {fid}
        mov r2, 1
        call 2      ; set
        exit
    """))


def _summaries(plugin):
    return summarize_plugin(plugin, HELPER_EFFECTS)


# --- effect summaries --------------------------------------------------------

class TestEffectSummaries:
    def test_constant_field_ids_are_resolved(self):
        plugin = _plugin("org.t.rw", [
            _reader(FLD_SRTT_US, name="r"),
            _writer(FLD_CWND, name="w"),
        ])
        effects = _summaries(plugin)
        assert effects.plugin == "org.t.rw"
        by_name = {s.pluglet: s for s in effects.summaries}
        assert by_name["r"].fields_read == (FLD_SRTT_US,)
        assert by_name["r"].fields_written == ()
        assert by_name["w"].fields_written == (FLD_CWND,)
        assert not by_name["w"].unknown_writes
        assert effects.writes() == (FLD_CWND,)

    def test_nonconstant_field_id_degrades_to_wildcard(self):
        # r1 comes from a helper return value: the analyzer cannot name
        # the field, so the summary records an unknown-write wildcard.
        pluglet = Pluglet("wild", "update_rtt", "post", assemble("""
            call 5      ; get_opaque_data -> r0 unknown
            mov r1, r0
            mov r2, 1
            call 2      ; set(?)
            exit
        """))
        summary = _summaries(_plugin("org.t.wild", [pluglet])).summaries[0]
        assert summary.unknown_writes
        assert summary.fields_written == ()
        assert summary.writes_field(FLD_SPIN_BIT)  # wildcard matches all

    def test_run_protoop_and_declared_triggers(self):
        pluglet = Pluglet("trig", "update_rtt", "post", assemble(f"""
            mov r1, 2
            mov r2, 0
            call {H_RUN_PROTOOP}
            exit
        """), triggers=("other_op",))
        summary = _summaries(_plugin("org.t.trig", [pluglet])).summaries[0]
        assert summary.calls_run_protoop
        assert summary.triggers == ("other_op",)
        assert H_RUN_PROTOOP in summary.helpers

    def test_summarize_pluglet_direct(self):
        summary = summarize_pluglet(
            "p", "op", "replace", assemble("exit"), HELPER_EFFECTS)
        assert summary.anchor == "replace"
        assert summary.helpers == ()
        assert not summary.calls_run_protoop

    def test_plugin_effect_summaries_cached(self):
        plugin = _plugin("org.t.cache", [_reader(FLD_SRTT_US)])
        assert plugin.effect_summaries() is plugin.effect_summaries()


# --- conflict catalog --------------------------------------------------------

class TestConflictCatalog:
    def test_pre200_replace_collision_is_error(self):
        a = _summaries(_plugin("org.t.a", [
            Pluglet("ra", "select_sending_path", "replace",
                    assemble("mov r0, 0\nexit"))]))
        b = _summaries(_plugin("org.t.b", [
            Pluglet("rb", "select_sending_path", "replace",
                    assemble("mov r0, 0\nexit"))]))
        diags = check_conflicts([a], b, FIELD_NAMES)
        assert [d.rule for d in diags] == ["PRE200"]
        assert diags[0].severity is Severity.ERROR

    def test_pre200_distinct_params_do_not_collide(self):
        a = _summaries(_plugin("org.t.a", [
            Pluglet("ra", "process_frame", "replace",
                    assemble("mov r0, 0\nexit"), param=0x30)]))
        b = _summaries(_plugin("org.t.b", [
            Pluglet("rb", "process_frame", "replace",
                    assemble("mov r0, 0\nexit"), param=0x31)]))
        assert check_conflicts([a], b, FIELD_NAMES) == []

    def test_pre201_write_write_is_warning(self):
        a = _summaries(_plugin("org.t.a", [_writer(FLD_CWND, name="wa")]))
        b = _summaries(_plugin("org.t.b", [
            _writer(FLD_CWND, name="wb", protoop="packet_sent_event")]))
        diags = check_conflicts([a], b, FIELD_NAMES)
        assert [d.rule for d in diags] == ["PRE201"]
        assert diags[0].severity is Severity.WARNING
        assert "cwnd" in diags[0].message

    def test_pre202_order_sensitive_same_anchor_chain(self):
        a = _summaries(_plugin("org.t.a", [
            _writer(FLD_SPIN_BIT, name="w", protoop="update_rtt",
                    anchor="post")]))
        b = _summaries(_plugin("org.t.b", [
            _reader(FLD_SPIN_BIT, name="r", protoop="update_rtt",
                    anchor="post")]))
        rules = {d.rule for d in check_conflicts([a], b, FIELD_NAMES)}
        assert "PRE202" in rules

    def test_pre203_trigger_cycle_is_error(self):
        call = assemble(f"mov r1, 2\nmov r2, 0\ncall {H_RUN_PROTOOP}\nexit")
        a = _summaries(_plugin("org.t.a", [
            Pluglet("pa", "op_a", "replace", call, triggers=("op_b",))]))
        b = _summaries(_plugin("org.t.b", [
            Pluglet("pb", "op_b", "replace", call, triggers=("op_a",))]))
        diags = check_conflicts([a], b, FIELD_NAMES)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert [d.rule for d in errors] == ["PRE203"]
        assert "op_a" in errors[0].message and "op_b" in errors[0].message

    def test_pre204_undeclared_run_protoop_is_wildcard_warning(self):
        call = assemble(f"mov r1, 2\nmov r2, 0\ncall {H_RUN_PROTOOP}\nexit")
        b = _summaries(_plugin("org.t.b", [
            Pluglet("pb", "op_b", "post", call)]))  # no triggers declared
        diags = check_conflicts([], b, FIELD_NAMES)
        assert [d.rule for d in diags] == ["PRE204"]
        assert diags[0].severity is Severity.WARNING

    def test_compatible_plugins_report_nothing(self):
        a = _summaries(_plugin("org.t.a", [_reader(FLD_SRTT_US)]))
        b = _summaries(_plugin("org.t.b", [
            _writer(FLD_SPIN_BIT, protoop="packet_sent_event")]))
        assert check_conflicts([a], b, FIELD_NAMES) == []

    def test_check_plugin_set_reports_each_conflict_once(self):
        mk = lambda name: _summaries(_plugin(name, [
            Pluglet("r", "select_sending_path", "replace",
                    assemble("mov r0, 0\nexit"))]))
        diags = check_plugin_set([mk("org.t.a"), mk("org.t.b"),
                                  mk("org.t.c")], FIELD_NAMES)
        # pairwise: (a,b), (a,c), (b,c) — three collisions, no dupes.
        assert [d.rule for d in diags] == ["PRE200"] * 3


class TestCallGraph:
    def test_edges_follow_declared_triggers(self):
        call = assemble(f"mov r1, 2\nmov r2, 0\ncall {H_RUN_PROTOOP}\nexit")
        a = _summaries(_plugin("org.t.a", [
            Pluglet("pa", "op_a", "replace", call, triggers=("op_b",))]))
        b = _summaries(_plugin("org.t.b", [
            Pluglet("pb", "op_b", "replace", assemble("exit"))]))
        graph = ProtoopCallGraph([a, b])
        assert graph.cycles() == []
        assert any(e.source == "op_a" and e.target == "op_b"
                   for e in graph.edges)

    def test_self_trigger_is_a_cycle(self):
        call = assemble(f"mov r1, 1\nmov r2, 0\ncall {H_RUN_PROTOOP}\nexit")
        a = _summaries(_plugin("org.t.a", [
            Pluglet("pa", "op_a", "replace", call, triggers=("op_a",))]))
        graph = ProtoopCallGraph([a])
        assert graph.cycles()


# --- manifest trigger declarations ------------------------------------------

class TestTriggerManifest:
    def test_triggers_survive_serialization(self):
        plugin = _plugin("org.t.wire", [
            Pluglet("t", "op_a", "post",
                    assemble(f"mov r1, 2\nmov r2, 0\n"
                             f"call {H_RUN_PROTOOP}\nexit"),
                    triggers=("op_b", "op_c")),
            Pluglet("n", "op_b", "post", assemble("exit")),
        ])
        back = Plugin.deserialize(plugin.serialize())
        assert [p.triggers for p in back.pluglets] == [("op_b", "op_c"), ()]
        assert back.serialize() == plugin.serialize()


# --- attach-time enforcement -------------------------------------------------

class TestAttachTimeConflicts:
    def _conflicting_pair(self):
        mk = lambda name, pl: Plugin(name, [pl], memory_size=4096)
        first = mk("org.t.first", Pluglet(
            "ra", "select_sending_path", "replace",
            assemble("mov r0, 0\nexit")))
        second = mk("org.t.second", Pluglet(
            "rb", "select_sending_path", "replace",
            assemble("mov r0, 0\nexit")))
        return first, second

    def test_conflicting_plugin_rejected_before_registration(self):
        conn = make_conn()
        first, second = self._conflicting_pair()
        PluginInstance(first, conn).attach()
        with pytest.raises(ProtoopError, match="PRE200"):
            PluginInstance(second, conn).attach()
        assert "org.t.second" not in conn.plugins
        assert "org.t.first" in conn.plugins

    def test_protoop_table_alone_refuses_the_second_replace(self, monkeypatch):
        # The safety net under the analyzer: a collision the conflict
        # check let through is still refused at registration, and the
        # half-attached plugin is rolled back.
        monkeypatch.setattr(PluginInstance, "_check_conflicts",
                            lambda self: [])
        conn = make_conn()
        first, second = self._conflicting_pair()
        PluginInstance(first, conn).attach()
        with pytest.raises(ProtoopError, match="already"):
            PluginInstance(second, conn).attach()
        assert "org.t.second" not in conn.plugins
        assert "org.t.first" in conn.plugins

    def test_warning_conflicts_attach_and_emit_report(self):
        conn = make_conn()
        seen = []
        conn.protoops.declare("plugin_conflict_report")
        conn.protoops.get("plugin_conflict_report").post.setdefault(
            None, []).append(
            lambda conn_, args, result: seen.append(args))
        PluginInstance(_plugin("org.t.w1", [
            _writer(FLD_CWND, name="w1")]), conn).attach()
        PluginInstance(_plugin("org.t.w2", [
            _writer(FLD_CWND, name="w2",
                    protoop="packet_sent_event")]), conn).attach()
        assert "org.t.w2" in conn.plugins  # warning, not rejection
        assert seen and seen[-1][0] == "org.t.w2"
        assert "PRE201" in seen[-1][2]


# --- static fuel certificates ------------------------------------------------

LOOP_SRC = """
    mov r6, 0
    mov r0, 0
loop:
    add r0, 2
    add r6, 1
    jlt r6, 10, loop
    exit
"""


class TestFuelCertificates:
    def test_certificate_bounds_a_counted_loop(self):
        report = analyze(assemble(LOOP_SRC))
        cert = report.fuel_certificate
        assert cert is not None
        assert not report.loop_free
        assert report.fuel_bound == cert.fuel_bound
        assert cert.loops and cert.loops[0].trips >= 9
        # The bound is a worst case: actual execution fits under it.
        program = assemble(LOOP_SRC)
        vm = JitVirtualMachine(program, PluginMemory(size=64),
                               code=load_jit(program))
        assert vm.run() == 20
        assert vm.instructions_executed <= report.fuel_bound

    def test_jit_elides_fuel_checks_for_certified_loop(self):
        program = assemble(LOOP_SRC)
        report = analyze(program, heap_size=64)
        vm = JitVirtualMachine(program, PluginMemory(size=64),
                               instruction_budget=10_000,
                               code=load_jit(program, report))
        assert vm.jit_specialized
        fast = vm._fast_function.source
        assert "raise _FuelExhausted" not in fast
        assert "_fuel -=" in fast  # accounting stays exact
        ref = JitVirtualMachine(program, PluginMemory(size=64),
                                instruction_budget=10_000,
                                code=load_jit(program))
        assert vm.run() == ref.run() == 20
        assert vm.instructions_executed == ref.instructions_executed

    def test_tight_budget_still_exhausts_identically(self):
        program = assemble(LOOP_SRC)
        report = analyze(program, heap_size=64)
        vm = JitVirtualMachine(program, PluginMemory(size=64),
                               instruction_budget=10,
                               code=load_jit(program, report))
        assert vm.jit_specialized  # compiled, but gated per run
        with pytest.raises(FuelExhausted, match="10 instructions"):
            vm.run()
        assert vm.instructions_executed == 10

    def test_no_certificate_when_counter_is_data_dependent(self):
        report = analyze(assemble("""
            call 1
            mov r6, r0
        loop:
            sub r6, 1
            jne r6, 0, loop
            exit
        """))
        assert report.fuel_certificate is None
        assert report.fuel_bound is None

    def test_pre110_proves_declared_fuel_will_trip(self):
        from repro.vm.analysis import lint_plugin

        plugin = _plugin("org.t.fuel", [
            Pluglet("loop", "update_rtt", "post", assemble(LOOP_SRC),
                    fuel=5)])
        diags = lint_plugin(plugin)
        hits = [d for d in diags if d.rule == "PRE110"]
        assert hits, [str(d) for d in diags]
        assert hits[0].severity is Severity.WARNING
