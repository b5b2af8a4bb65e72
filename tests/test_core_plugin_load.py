"""Load once, instantiate per connection (§2.5): what a ``Plugin`` computes
once and shares — verdict, proofs, JIT-compiled closures — and what every
``PluginInstance`` owns — heap, VM counters, budgets.  Also what a load
costs: one abstract interpretation, one pass of the §2.1 rules and one
closure per pluglet, the checked closure of a proven pluglet on demand."""

from pathlib import Path

import pytest

import repro.core.plugin as plugin_module
import repro.vm.analysis.rules as rules_module
import repro.vm.jit as jit_module
from repro.cli import BUILTIN_PLUGINS, _load_plugin_set_file
from repro.core import Plugin, PluginCache, PluginInstance, Pluglet
from repro.core.api import FIELD_NAMES
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
from repro.vm import (
    FuelExhausted,
    JitVirtualMachine,
    VerificationError,
    VirtualMachine,
    VmError,
    assemble,
)
from repro.vm.analysis import (
    AbstractInterpretation,
    check_plugin_set,
    summarize_plugin,
)
from repro.vm.isa import Instruction, Op
from repro.vm.jit import JitError
from tests.test_core_helper_effects import observe_pluglet

#: Bumps an 8-byte counter in plugin memory (opaque area 1) and returns it.
COUNT = """
    mov r1, 1
    mov r2, 8
    call 5
    ldxdw r3, [r0+0]
    add r3, 1
    stxdw [r0+0], r3
    mov r0, r3
    exit
"""


def make_conn():
    return QuicConnection(QuicConfiguration(is_client=True))


def replace_pluglet(name, source, **kwargs):
    """A pluglet that *is* the new protoop ``name``."""
    return Pluglet(name, name, "replace", assemble(source), **kwargs)


def counting_plugin(name="org.load.count"):
    return Plugin(name, [replace_pluglet("count", COUNT)])


@pytest.fixture(autouse=True)
def default_switches(monkeypatch):
    monkeypatch.delenv("REPRO_JIT", raising=False)


def counting_compile(monkeypatch) -> list:
    """Record ``(program id, specialized)`` for every ``compile_jit``."""
    compiled = []
    real_compile = jit_module.compile_jit

    def counting(instructions, *args, **kwargs):
        proof = kwargs.get("proof", args[0] if args else None)
        compiled.append((id(instructions), proof is not None))
        return real_compile(instructions, *args, **kwargs)

    monkeypatch.setattr(jit_module, "compile_jit", counting)
    return compiled


class TestLoadedOnce:
    def test_n_instantiations_compile_and_verify_once(self, monkeypatch):
        """One verdict and one closure per pluglet, however many
        connections: every monitoring pluglet is proven, so the closure
        is the specialized one and no checked fallback is compiled."""
        compiled = counting_compile(monkeypatch)
        verified = []
        real_verify = plugin_module.verify_report
        monkeypatch.setattr(
            plugin_module, "verify_report",
            lambda report: (verified.append(id(report)),
                            real_verify(report))[1])

        plugin = build_monitoring_plugin()
        programs = sorted(id(p.instructions) for p in plugin.pluglets)
        cache = PluginCache()
        cache.store(plugin)
        first = cache.instantiate(plugin.name, make_conn())
        after_first = list(compiled)
        for _ in range(3):
            cache.instantiate(plugin.name, make_conn())
        PluginInstance(plugin, make_conn())  # not through the cache

        assert compiled == after_first
        assert len(set(verified)) == len(verified) == len(programs)
        assert sorted(key for key, _ in compiled) == programs
        assert all(fast for _, fast in compiled)
        assert all(vm.jit_specialized for vm in first.vms.values())
        assert (cache.misses, cache.hits) == (1, 3)

    def test_store_does_not_compile(self, monkeypatch):
        monkeypatch.setattr(jit_module, "compile_jit", lambda *a, **k: 1 / 0)
        plugin = counting_plugin()
        PluginCache().store(plugin)
        assert not plugin.loaded

    def test_failed_verification_fails_every_instantiation(self, monkeypatch):
        verified = []
        real_verify = plugin_module.verify_report
        monkeypatch.setattr(
            plugin_module, "verify_report",
            lambda report: (verified.append(1), real_verify(report))[1])
        bad = Plugin("org.load.bad", [
            Pluglet("ok", "op", "post", assemble("exit")),
            Pluglet("b", "op", "post", [Instruction(Op.MOV_IMM, dst=0)]),
        ])
        messages = []
        for _ in range(3):
            with pytest.raises(VerificationError) as info:
                PluginInstance(bad, make_conn())
            messages.append(str(info.value))
        with pytest.raises(VerificationError):
            PluginCache().store(bad)
        assert len(set(messages)) == 1 and "pluglet b" in messages[0]
        assert len(verified) == 2  # once per pluglet, never again
        assert not bad.loaded

    def test_store_under_existing_name_never_serves_old_code(self):
        cache = PluginCache()
        name = "org.load.versioned"
        cache.store(Plugin(name, [replace_pluglet("v", "mov r0, 1\nexit")]))
        conn_old = make_conn()
        cache.instantiate(name, conn_old).attach()
        cache.instantiate(name, make_conn())
        assert (cache.misses, cache.hits) == (1, 1)

        cache.store(Plugin(name, [replace_pluglet("v", "mov r0, 2\nexit")]))
        conn_new = make_conn()
        cache.instantiate(name, conn_new).attach()
        assert cache.misses == 2  # the new plugin had to be loaded
        assert conn_new.protoops.run(conn_new, "v", None) == 2
        # The live instance of the replaced plugin keeps its own code.
        assert conn_old.protoops.run(conn_old, "v", None) == 1


class TestInstancesAreIsolated:
    def test_heaps_and_counters_are_per_instance(self):
        plugin = counting_plugin()
        conn_a, conn_b = make_conn(), make_conn()
        a, b = PluginInstance(plugin, conn_a), PluginInstance(plugin, conn_b)
        a.attach()
        b.attach()
        assert [conn_a.protoops.run(conn_a, "count", None)
                for _ in range(3)] == [1, 2, 3]
        assert conn_b.protoops.run(conn_b, "count", None) == 1
        vm_a, vm_b = a.vms["count"], b.vms["count"]
        assert vm_a is not vm_b
        assert vm_a.jit_function is vm_b.jit_function  # shared code
        assert a.runtime.memory is not b.runtime.memory
        assert a.runtime.memory.data != b.runtime.memory.data
        assert vm_a.instructions_executed == 3 * vm_b.instructions_executed > 0
        assert (vm_a.helper_calls_made, vm_b.helper_calls_made) == (3, 1)

    def test_budget_gates_are_evaluated_per_vm(self, monkeypatch):
        compiled = counting_compile(monkeypatch)
        plugin = Plugin("org.load.gate", [
            replace_pluglet("sum", "mov r0, 1\nadd r0, 2\nexit")])
        assert plugin.analyze_all()["sum"].fuel_bound == 3
        starved = PluginInstance(plugin, make_conn()).vms["sum"]
        sibling = PluginInstance(plugin, make_conn()).vms["sum"]
        assert starved._fast_function is sibling._fast_function is not None
        assert [fast for _, fast in compiled] == [True]  # the load
        # Below the proven bound only the checked closure may run — the
        # specialized one has no exhaustion check and would return 3.
        # The first such run compiles it, for every VM of the plugin.
        starved.instruction_budget = 2
        for _ in range(2):
            with pytest.raises(FuelExhausted, match="2 instructions"):
                starved.run()
        assert sibling.run() == 3
        assert (starved.instructions_executed,
                sibling.instructions_executed) == (4, 3)
        assert [fast for _, fast in compiled] == [True, False]
        assert starved.jit_function is sibling.jit_function is not None
        assert len(compiled) == 2

    def test_shared_code_is_reentrant(self):
        """Connection A's pluglet is still running when the same code is
        entered for connection B (here through ``plugin_run_protoop`` and
        a host operation that reaches the other connection)."""
        outer = replace_pluglet("outer", """
            mov r6, r1                      ; own argument, live across the call
            mov r1, 1                       ; protoop id 1 = relay
            lddw r2, 0xffffffffffffffff     ; no param
            mov r3, 1
            mov r4, r6
            call 8
            add r0, r6
            exit
        """, triggers=("relay",))
        plugin = Plugin("org.load.reentrant", [outer])
        conn_a, conn_b = make_conn(), make_conn()
        depth = []

        def relay_to_b(conn, value):
            depth.append(a.vms["outer"].current_stack is not None)
            return conn_b.protoops.run(conn_b, "outer", None, value - 1)

        conn_a.protoops.register("relay", relay_to_b)
        conn_b.protoops.register("relay", lambda conn, value: 100)
        a, b = PluginInstance(plugin, conn_a), PluginInstance(plugin, conn_b)
        for instance in (a, b):
            assert instance.runtime.protoop_id("relay") == 1
            instance.attach()
        assert a.vms["outer"].jit_function is b.vms["outer"].jit_function
        assert conn_a.protoops.run(conn_a, "outer", None, 5) == 100 + 4 + 5
        assert depth == [True]  # B ran inside A's invocation
        assert (a.vms["outer"].instructions_executed
                == b.vms["outer"].instructions_executed == 8)
        assert a.vms["outer"].current_stack is None


def observe(instance):
    """Everything a run makes observable, per pluglet."""
    seen = {}
    for name, vm in instance.vms.items():
        runs = []
        for args in ((), (7, 0), (9, 3)):
            try:
                runs.append(("ok", vm.run(*args)))
            except VmError as exc:
                runs.append((type(exc).__name__, str(exc)))
            runs.append((vm.instructions_executed, vm.helper_calls_made))
        seen[name] = runs
    return seen, bytes(instance.runtime.memory.data)


class TestSwitchesFlippedOnOnePlugin:
    PLUGLETS = {
        "count": COUNT,
        "divide": "mov r0, r1\ndiv r0, r2\nexit",            # faults on /0
        "spin": "top:\nja top\nexit",                          # fuel bomb
        "heap": "lddw r6, 0x20000000\nstdw [r6+8], 5\nldxdw r0, [r6+8]\nexit",
    }

    def build(self):
        return Plugin("org.load.modes", [
            replace_pluglet(name, source, fuel=200)
            for name, source in self.PLUGLETS.items()])

    @pytest.mark.parametrize("order", ["1011", "0100"])
    def test_right_vm_and_identical_behaviour_in_every_mode(
            self, monkeypatch, order):
        shared = self.build()
        for mode in order:
            jit = mode == "1"
            monkeypatch.setenv("REPRO_JIT", mode)
            instance = PluginInstance(shared, make_conn())
            for name, vm in instance.vms.items():
                assert type(vm) is (JitVirtualMachine if jit
                                    else VirtualMachine), (mode, name)
                assert vm.execution_path == ("jit" if jit else "interpreter")
                if jit:
                    # "spin" is rejected by the analyzer: never specialized.
                    assert vm.jit_specialized == (name != "spin")
            assert set(instance.analysis_reports) == set(self.PLUGLETS)
            fresh = PluginInstance(self.build(), make_conn())
            assert observe(instance) == observe(fresh), mode
        results = observe(PluginInstance(shared, make_conn()))[0]
        assert results["divide"][0][0] == "ExecutionError"
        assert results["spin"][0][0] == "FuelExhausted"


# --- what a load costs ---------------------------------------------------------

BUNDLED = [build_monitoring_plugin, build_multipath_plugin,
           build_datagram_plugin, build_fec_plugin, build_ecn_plugin,
           build_ccontrol_plugin]

PAIRS = Path(__file__).parent / "corpus" / "pairs"


@pytest.fixture
def load_work(monkeypatch):
    """Counts of the three pieces of work a load does: abstract
    interpretations, passes of the §2.1 rules, closures compiled."""
    work = {"interpretations": 0, "legacy_passes": 0, "closures": 0}

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            work[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(AbstractInterpretation, "__init__", "interpretations")
    count(rules_module, "_legacy_rules", "legacy_passes")
    count(jit_module, "compile_jit", "closures")
    return work


class TestLoadCost:
    """A cost gate that times nothing: a cold load interprets each
    pluglet once, evaluates the §2.1 rules on it once and compiles one
    closure for it, whatever asks for the verdict, the proofs, the
    effect summaries and the code, in whatever order."""

    @pytest.mark.parametrize("build", BUNDLED, ids=lambda b: b.__name__)
    def test_each_piece_of_work_once_per_pluglet(self, build, load_work):
        plugin = build()
        plugin.verify_all()
        plugin.analyze_all()
        plugin.effect_summaries()
        plugin.load()
        for _ in range(2):
            PluginInstance(plugin, make_conn()).attach()
        n = len(plugin.pluglets)
        assert load_work == {"interpretations": n, "legacy_passes": n,
                             "closures": n}

    def test_analysis_first_then_verdict(self, load_work):
        """The order of a plugin received in-band: the deep analysis
        runs first and the cache's verdict is read off it."""
        plugin = build_multipath_plugin()
        plugin.analyze_all()
        PluginCache().store(plugin)
        n = len(plugin.pluglets)
        assert load_work == {"interpretations": n, "legacy_passes": n,
                             "closures": 0}

    def test_verdict_alone_stays_shallow(self, load_work):
        PluginCache().store(build_monitoring_plugin())
        assert load_work["interpretations"] == load_work["closures"] == 0

    def test_bundled_plugins_load_one_closure_per_pluglet(self, load_work):
        for build in BUNDLED:
            build().load()
        assert load_work["closures"] == 46


# --- the checked closure, on demand ---------------------------------------------


class TestCheckedClosureOnDemand:
    @pytest.mark.parametrize("build", BUNDLED, ids=lambda b: b.__name__)
    def test_matches_the_interpreter_at_every_budget(self, build,
                                                     monkeypatch):
        """VMs sharing one loaded ``JitCode``: one with its gates open
        runs the specialized closure; one below the proven fuel bound —
        or, for a pluglet without one, in a memory smaller than the
        proofs assumed — compiles the checked closure on its first run.
        Then every budget from 0 to what the pluglet executes, in both
        memories, agrees with the interpreter on result, counters, heap
        and fault, with the checked closure compiled exactly once."""
        plugin = build()
        loaded = plugin.load()
        compiled = counting_compile(monkeypatch)
        for pluglet in plugin.pluglets:
            code = loaded[pluglet.name]
            assert code.fast is not None
            full, small = plugin.memory_size, code.heap_size - 8

            def agree(budget, memory):
                return (observe_pluglet(plugin, pluglet, budget, code, memory)
                        == observe_pluglet(plugin, pluglet, budget, None,
                                           memory))

            executed = observe_pluglet(plugin, pluglet, 10_000, None)[1]
            assert agree(max(executed, code.fuel_bound or 0), full)
            assert compiled == []
            assert (agree(code.fuel_bound - 1, full) if code.fuel_bound
                    else agree(executed, small))
            assert compiled == [(id(pluglet.instructions), False)]
            for budget in range(executed + 1):
                for memory in (full, small):
                    assert agree(budget, memory), (pluglet.name, budget,
                                                   memory)
            assert len(compiled) == 1
            compiled.clear()

    def test_a_checked_compile_that_fails_runs_in_the_interpreter(
            self, monkeypatch):
        plugin = Plugin("org.load.gate", [
            replace_pluglet("sum", "mov r0, 1\nadd r0, 2\nexit")])
        starved, sibling = (PluginInstance(plugin, make_conn()).vms["sum"]
                            for _ in range(2))
        interpreted = []
        real_run = VirtualMachine.run
        monkeypatch.setattr(
            VirtualMachine, "run",
            lambda vm, *args: (interpreted.append(vm), real_run(vm, *args))[1])

        def refuse(*args, **kwargs):
            raise JitError("refused")

        monkeypatch.setattr(jit_module, "compile_jit", refuse)
        starved.instruction_budget = 2
        with pytest.raises(FuelExhausted, match="2 instructions"):
            starved.run()
        assert sibling.run() == 3
        assert interpreted == [starved]
        assert starved.jit_function is None  # not retried
        assert (starved.instructions_executed,
                sibling.instructions_executed) == (2, 3)


def two_interpretation_effects(plugins) -> tuple:
    """Summaries and set-wide conflicts as a plugin's own analysis gives
    them, and as a second interpretation of the bytecode gives them."""
    one = [p.effect_summaries() for p in plugins]
    two = [summarize_plugin(p, p.helper_effects) for p in plugins]
    return ((one, check_plugin_set(one, FIELD_NAMES)),
            (two, check_plugin_set(two, FIELD_NAMES)))


class TestOneInterpretationServesTheSummaries:
    def test_bundled_plugins(self):
        ours, theirs = two_interpretation_effects(
            [build() for build in BUILTIN_PLUGINS.values()])
        assert ours == theirs
        assert any(s.fields_written for e in ours[0] for s in e.summaries)
        assert ours[1]  # the FEC variants collide by design

    @pytest.mark.parametrize("path", sorted(PAIRS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_corpus_pairs(self, path):
        ours, theirs = two_interpretation_effects(
            _load_plugin_set_file(path))
        assert ours == theirs
