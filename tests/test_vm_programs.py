"""The program store (§2.5, by content): a pluglet program is decoded,
verified, analyzed and compiled once per process, whichever plugin
object holds it — built again, received, or decoded by a validator; what
a plugin derives from its programs and binding is kept once per content
too; and the stores and the compiler's source memo stay bounded."""

import pytest

import repro.vm.analysis.rules as rules_module
import repro.vm.compiler as compiler_module
import repro.vm.jit as jit_module
from repro.core import Plugin, PluginCache, PluginInstance, Pluglet
from repro.core.api import H_PLUGIN_BASE
from repro.core.plugin import MAX_ATTACHED_SETS
from repro.plugins import (
    build_ccontrol_plugin,
    build_datagram_plugin,
    build_ecn_plugin,
    build_fec_plugin,
    build_monitoring_plugin,
    build_multipath_plugin,
)
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm import CompileError, VerificationError, assemble, programs
from repro.vm.analysis import AbstractInterpretation, analyze
from repro.vm.compiler import MAX_MAPPINGS, MAX_SOURCES, compile_pluglet
from repro.vm.isa import Instruction, Op, encode_program
from repro.vm.programs import MAX_PLUGINS, MAX_PROGRAMS
from tests.test_core_helper_effects import effects_binding  # noqa: F401

BUNDLED = [build_monitoring_plugin, build_multipath_plugin,
           build_datagram_plugin, build_fec_plugin, build_ecn_plugin,
           build_ccontrol_plugin]


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


@pytest.fixture
def work(monkeypatch):
    """Counts of the load work: abstract interpretations, passes of the
    §2.1 rules, closures compiled and sources compiled."""
    counts = {"interpretations": 0, "legacy_passes": 0, "closures": 0,
              "sources": 0}

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(AbstractInterpretation, "__init__", "interpretations")
    count(rules_module, "_legacy_rules", "legacy_passes")
    count(jit_module, "compile_jit", "closures")
    count(compiler_module.PlugletCompiler, "compile", "sources")
    return counts


def load_everything(plugin):
    """Everything a host asks of a plugin, and two connections."""
    plugin.verify_all()
    plugin.effect_summaries()
    for _ in range(2):
        PluginInstance(plugin, make_conn()).attach()


def bad_plugin(name):
    return Plugin(name, [Pluglet("no_exit", "op", "post",
                                 [Instruction(Op.MOV_IMM, dst=0)])])


class TestWarm:
    def test_known_code_does_no_load_work(self, work, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        for build in BUNDLED:
            load_everything(build())
        assert all(work.values())
        work.update(dict.fromkeys(work, 0))
        for build in BUNDLED:
            plugin = build()
            load_everything(plugin)
            load_everything(Plugin.deserialize(plugin.serialize()))
        assert work == {"interpretations": 0, "legacy_passes": 0,
                        "closures": 0, "sources": 0}

    def test_a_received_plugin_shares_the_built_ones_programs(
            self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)  # closures to share
        plugin = build_multipath_plugin()
        code = plugin.load()
        copy = Plugin.deserialize(plugin.serialize())
        copied = copy.load()
        for p, q in zip(plugin.pluglets, copy.pluglets):
            assert copied[q.name] is code[p.name]
            assert q.instructions == p.instructions
            assert q.instructions is not p.instructions
        assert copy.analyze_all() == plugin.analyze_all()

    def test_a_warm_first_instantiation_is_a_cache_hit(self):
        PluginInstance(build_monitoring_plugin(), make_conn())
        cache = PluginCache()
        cache.store(Plugin.deserialize(build_monitoring_plugin().serialize()))
        cache.instantiate("org.pquic.monitoring", make_conn())
        assert (cache.misses, cache.hits) == (0, 1)

    def test_the_interpreter_shares_the_analysis_and_compiles_nothing(
            self, work, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        plugin = build_monitoring_plugin()
        n = len({p.bytecode for p in plugin.pluglets})
        for _ in range(2):
            load_everything(build_monitoring_plugin())
        assert build_monitoring_plugin().load() is None
        assert (work["interpretations"], work["legacy_passes"],
                work["closures"]) == (n, n, 0)


class TestKey:
    def test_one_flipped_byte_is_new_code(self, work):
        plugin = build_monitoring_plugin()
        plugin.analyze_all()
        wire = bytearray(plugin.serialize())
        code = plugin.pluglets[0].bytecode
        before = work["interpretations"]
        wire[bytes(wire).index(code) + 8] ^= 0x01  # first immediate
        tampered = Plugin.deserialize(bytes(wire))
        assert tampered.pluglets[0].bytecode != code
        tampered.analyze_all()
        assert work["interpretations"] == before + 1

    def test_the_heap_size_is_part_of_the_key(self):
        bytecode = encode_program(assemble("mov r0, 1\nexit"))
        small = programs.program(bytecode, 64)
        assert programs.program(bytecode, 64) is small
        assert programs.program(bytecode, 128) is not small

    def test_one_program_two_bindings_two_closures(self, effects_binding,
                                                  monkeypatch):
        """The same bytecode under a name whose binding declares the
        called helper blind, and under names that bind nothing: a
        closure without the write-back for the first, one with it shared
        by the others."""
        monkeypatch.delenv("REPRO_JIT", raising=False)
        pluglets = [Pluglet("p", "op", "replace", assemble(f"""
            stdw [r10-8], 1
            call {H_PLUGIN_BASE}
            ldxdw r0, [r10-8]
            exit
        """))]
        declared, bare, other = (Plugin(name, pluglets).load()["p"]
                                 for name in ("org.effects.load",
                                              "org.bare.load",
                                              "org.other.load"))
        assert bare is other and declared is not bare
        assert "_wb0(" in bare.checked.source
        assert "_wb0(" not in declared.checked.source

    def test_a_rejected_program_is_rejected_on_every_decode(self, work):
        wire = bad_plugin("org.store.bad").serialize()
        for _ in range(2):
            with pytest.raises(VerificationError,
                               match="plugin org.store.bad: pluglet no_exit"):
                Plugin.deserialize(wire).verify_all()
        with pytest.raises(VerificationError,
                           match="plugin org.store.other: pluglet no_exit"):
            bad_plugin("org.store.other").verify_all()
        assert work["legacy_passes"] == 1


class TestPluginEntry:
    PLUGLETS = [Pluglet("p", "op", "post", assemble("mov r0, 1\nexit"))]

    def test_known_content_shares_what_it_derives(self):
        first, again = build_monitoring_plugin(), build_monitoring_plugin()
        assert again.effect_summaries() is first.effect_summaries()
        assert again.conflicts_with([]) is first.conflicts_with([])
        wire = Plugin.deserialize(first.serialize())
        assert wire.effect_summaries() is first.effect_summaries()

    def test_the_name_and_binding_are_part_of_the_key(self, effects_binding):
        bare = Plugin("org.bare.p", self.PLUGLETS)
        declared = Plugin("org.effects.p", self.PLUGLETS)
        assert declared.host is effects_binding and bare.host is not declared.host
        assert declared.effect_summaries() is not bare.effect_summaries()
        assert Plugin("org.bare.q", self.PLUGLETS).effect_summaries() \
            is not bare.effect_summaries()

    def test_clear_empties_the_plugin_entries(self):
        plugin = build_datagram_plugin()
        summaries = plugin.effect_summaries()
        programs.clear()
        assert not programs._PLUGINS
        assert build_datagram_plugin().effect_summaries() is not summaries


class TestBound:
    def test_the_plugin_entries_keep_at_most_their_cap(self):
        first = Plugin("org.bound.0", TestPluginEntry.PLUGLETS)
        summaries = first.effect_summaries()
        for i in range(1, 2 * MAX_PLUGINS):
            Plugin(f"org.bound.{i}", TestPluginEntry.PLUGLETS).verify_all()
        assert len(programs._PLUGINS) == MAX_PLUGINS
        again = Plugin("org.bound.0", TestPluginEntry.PLUGLETS)
        assert again.effect_summaries() is not summaries
        assert again.effect_summaries() == summaries
        assert first.effect_summaries() is summaries  # kept by its plugin

    def test_an_entry_keeps_at_most_its_attached_sets(self):
        incoming = Plugin("org.bound.in", TestPluginEntry.PLUGLETS)
        others = [Plugin(f"org.bound.{i}", TestPluginEntry.PLUGLETS)
                  for i in range(MAX_ATTACHED_SETS + 1)]
        verdicts = [incoming.conflicts_with([other]) for other in others]
        kept = incoming._entry().conflicts
        assert 0 < len(kept) <= MAX_ATTACHED_SETS
        assert incoming.conflicts_with([others[-1]]) is verdicts[-1]
        assert incoming.conflicts_with([others[0]]) == verdicts[0]

    def test_the_store_keeps_at_most_its_cap(self):
        heap = 4096
        codes = [encode_program(assemble(f"mov r0, {i}\nexit"))
                 for i in range(2 * MAX_PROGRAMS)]
        first = programs.program(codes[0], heap)
        report = first.report(deep=True)
        for code in codes[1:]:
            programs.program(code, heap)
        assert len(programs._PROGRAMS) == MAX_PROGRAMS
        again = programs.program(codes[0], heap)
        assert again is not first
        assert again.report(deep=True) == report
        assert report == analyze(first.instructions, heap_size=heap)

    def test_a_plugin_keeps_an_evicted_program(self):
        plugin = build_datagram_plugin()
        code = plugin.load()
        for i in range(MAX_PROGRAMS):
            programs.program(encode_program(assemble(f"mov r0, {i}\nexit")),
                             64)
        assert plugin.load() == code
        assert plugin.loaded


class TestSourceMemo:
    SOURCE = """
def f(a, b):
    x = a + b
    while x > 10:
        x = x - 3
    return x
"""

    def test_a_hit_equals_a_fresh_compile_and_is_a_fresh_list(self, work):
        first = compile_pluglet(self.SOURCE, helpers={"h": 40})
        first.append(Instruction(Op.EXIT))
        again = compile_pluglet(self.SOURCE, helpers={"h": 40})
        assert work["sources"] == 1
        assert again == compiler_module.PlugletCompiler(
            {"h": 40}).compile(self.SOURCE)
        assert again is not first and len(again) == len(first) - 1

    def test_the_helper_mapping_is_part_of_the_key(self, work):
        compile_pluglet(self.SOURCE, helpers={"h": 40})
        compile_pluglet(self.SOURCE, helpers={"h": 41})
        compile_pluglet(self.SOURCE)
        assert work["sources"] == 3

    def test_a_compile_error_is_not_kept(self, work):
        for _ in range(2):
            with pytest.raises(CompileError):
                compile_pluglet("def f(a):\n    return a.b\n")
        assert work["sources"] == 2

    def test_the_memo_keeps_at_most_its_cap(self):
        for i in range(2 * MAX_SOURCES):
            compile_pluglet(f"def f():\n    return {i}\n")
        assert len(compiler_module._SOURCES) == MAX_SOURCES

    def test_a_source_keeps_at_most_its_cap_of_mappings(self, work):
        for i in range(2 * MAX_MAPPINGS):
            compile_pluglet(self.SOURCE, helpers={"h": i})
        assert len(compiler_module._SOURCES[self.SOURCE]) == MAX_MAPPINGS
        compile_pluglet(self.SOURCE, helpers={"h": 2 * MAX_MAPPINGS - 1})
        compile_pluglet(self.SOURCE, helpers={"h": 0})  # evicted
        assert work["sources"] == 2 * MAX_MAPPINGS + 1
