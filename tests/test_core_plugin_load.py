"""Load once, instantiate per connection (§2.5): what a ``Plugin`` computes
once and shares — verdict, proofs, JIT-compiled closures — and what every
``PluginInstance`` owns — heap, VM counters, budgets."""

import pytest

import repro.core.plugin as plugin_module
import repro.vm.jit as jit_module
from repro.core import Plugin, PluginCache, PluginInstance, Pluglet
from repro.plugins.monitoring import build_monitoring_plugin
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
from repro.vm.isa import Instruction, Op

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


class TestLoadedOnce:
    def test_n_instantiations_compile_and_verify_once(self, monkeypatch):
        compiled, verified = [], []
        real_compile, real_verify = jit_module.compile_jit, plugin_module.verify

        def counting_compile(instructions, *args, **kwargs):
            proof = kwargs.get("proof", args[0] if args else None)
            compiled.append((id(instructions), proof is not None))
            return real_compile(instructions, *args, **kwargs)

        def counting_verify(instructions):
            verified.append(id(instructions))
            return real_verify(instructions)

        monkeypatch.setattr(jit_module, "compile_jit", counting_compile)
        monkeypatch.setattr(plugin_module, "verify", counting_verify)

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
        assert sorted(verified) == programs
        checked = sorted(key for key, fast in compiled if not fast)
        fast = [key for key, fast in compiled if fast]
        assert checked == programs
        assert len(set(fast)) == len(fast) == sum(
            vm.jit_specialized for vm in first.vms.values()) > 0
        assert (cache.misses, cache.hits) == (1, 3)

    def test_store_does_not_compile(self, monkeypatch):
        monkeypatch.setattr(jit_module, "compile_jit", lambda *a, **k: 1 / 0)
        plugin = counting_plugin()
        PluginCache().store(plugin)
        assert not plugin.loaded

    def test_failed_verification_fails_every_instantiation(self, monkeypatch):
        verified = []
        real_verify = plugin_module.verify
        monkeypatch.setattr(
            plugin_module, "verify",
            lambda ins: (verified.append(1), real_verify(ins))[1])
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

    def test_budget_gates_are_evaluated_per_vm(self):
        plugin = Plugin("org.load.gate", [
            replace_pluglet("sum", "mov r0, 1\nadd r0, 2\nexit")])
        assert plugin.analyze_all()["sum"].fuel_bound == 3
        starved = PluginInstance(plugin, make_conn()).vms["sum"]
        sibling = PluginInstance(plugin, make_conn()).vms["sum"]
        assert starved._fast_function is sibling._fast_function is not None
        # Below the proven bound only the checked closure may run — the
        # specialized one has no exhaustion check and would return 3.
        starved.instruction_budget = 2
        with pytest.raises(FuelExhausted, match="2 instructions"):
            starved.run()
        assert sibling.run() == 3
        assert (starved.instructions_executed,
                sibling.instructions_executed) == (2, 3)

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
