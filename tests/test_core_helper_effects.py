"""Helper effect declarations (``HelperEffect.reaches_stack``) for the core
table and the bundled plugins: complete, truthful, and safe to compile
against — the JIT keeps a pluglet's frame in locals across a call to a
helper declared not to reach the stack, so a wrong declaration is a
miscompilation."""

import inspect
import re

import pytest

from repro.core import HostBinding, Plugin, PluginApi, PluginRuntime, Pluglet
from repro.core import plugin as core_plugin
from repro.core.api import (
    H_GET_OPAQUE_DATA,
    H_PL_MALLOC,
    H_PLUGIN_BASE,
    HELPER_EFFECTS,
    HelperEffect,
)
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
from repro.vm import PluginMemory, VirtualMachine, VmError, assemble
from repro.vm.interpreter import HEAP_BASE, STACK_BASE
from repro.vm.isa import Op
from repro.vm.jit import JitVirtualMachine, _private_frame, load_jit

BUILDERS = [build_monitoring_plugin, build_multipath_plugin,
            build_datagram_plugin, build_fec_plugin, build_ecn_plugin,
            build_ccontrol_plugin]

#: How helper source reaches the stack of the pluglet that called it.
STACK_DOORS = ("current_stack", "vm.load", "vm.store", "vm._region",
               "_range(vm")


def called_ids(plugin):
    return {ins.imm for p in plugin.pluglets for ins in p.instructions
            if ins.opcode is Op.CALL}


def reaches_stack(plugin, helper_id):
    effect = plugin.helper_effects.get(helper_id)
    return effect is None or effect.reaches_stack


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
class TestBundledDeclarations:
    def test_every_called_helper_is_declared(self, build):
        plugin = build()
        assert called_ids(plugin) <= set(plugin.helper_effects)

    def test_a_helper_that_mentions_the_stack_says_so(self, build):
        plugin = build()
        conn = QuicConnection(QuicConfiguration(is_client=True))
        table = PluginApi(PluginRuntime(plugin, conn)).helper_table()
        assert set(table) == set(plugin.helper_effects)
        for helper_id, helper in table.items():
            source = inspect.getsource(helper)
            if any(door in source for door in STACK_DOORS):
                assert plugin.helper_effects[helper_id].reaches_stack, (
                    f"helper {helper_id} ({helper.__name__}) reaches the "
                    f"stack but is not declared reaches_stack")

    def test_frames_are_promoted_and_reach_the_stack_only_by_write_back(
            self, build):
        """Compiled pluglets never let r10 escape, so every frame is
        private — most are empty, their locals living in registers — and
        the only lines that name the stack bytearray are write-back,
        re-read, and the access by run-time address between them."""
        dynamic = f"_a - {STACK_BASE}"
        plugin = build()
        frames = {p.name: _private_frame(p.instructions)
                  for p in plugin.pluglets}
        assert all(frame is not None for frame in frames.values())
        for name, code in plugin.load().items():
            for fn in filter(None, (code.checked, code.fast)):
                lines = fn.source.splitlines()[1:]  # skip the signature
                for i, line in enumerate(lines):
                    if "(stack, " not in line and "stack[" not in line:
                        continue
                    if dynamic in line:
                        if frames[name].names:
                            assert "_wb0(stack, " in lines[i - 1], (name, line)
                            assert "= _rr0(stack, " in lines[i + 1], (name, line)
                    else:
                        assert re.match(
                            r"\s+(_wb\d+\(stack, \d+, s\d+"
                            r"|\(s\d+,.*\) = _rr\d+\(stack, \d+\)$)",
                            line), (name, line)

    def test_each_pluglet_is_engine_independent_at_every_budget(self, build):
        """The interpreter, the closures the plugin loads (specialized
        where the proof allows) and the monitored closure an unproven
        pluglet would get agree at every fuel budget."""
        plugin = build()
        code = plugin.load()
        for pluglet in plugin.pluglets:
            def observe(budget, engine):
                return observe_pluglet(plugin, pluglet, budget, engine)

            loaded = code[pluglet.name]
            monitored = load_jit(pluglet.instructions, None)
            assert monitored.fast is None
            executed = observe(10_000, None)[1]
            assert 0 < executed < 10_000
            for budget in range(executed + 1):
                interpreted = observe(budget, None)
                assert observe(budget, loaded) == interpreted, (
                    pluglet.name, budget, "loaded")
                assert observe(budget, monitored) == interpreted, (
                    pluglet.name, budget, "monitored")


def observe_pluglet(plugin, pluglet, budget, code, memory_size=None):
    """One run against canned helpers: outcome, counters, heap, and what
    the helpers saw (the stack too, for those that may look at it)."""
    memory = PluginMemory(memory_size or plugin.memory_size)
    log = []

    def canned(helper_id):
        def helper(vm, a1, a2, a3, a4, a5):
            seen = (helper_id, a1, a2, a3, a4, a5)
            if reaches_stack(plugin, helper_id):
                seen += (bytes(vm.current_stack),)
            log.append(seen)
            if helper_id == H_GET_OPAQUE_DATA:
                return HEAP_BASE + 256 * (a1 % 8)
            if helper_id == H_PL_MALLOC:
                return HEAP_BASE + 4096
            return (helper_id + a1) % 5
        return helper

    helpers = {helper_id: canned(helper_id)
               for helper_id in called_ids(plugin)}
    if code is None:
        vm = VirtualMachine(pluglet.instructions, memory, helpers,
                            instruction_budget=budget)
    else:
        vm = JitVirtualMachine(pluglet.instructions, memory, helpers,
                               instruction_budget=budget, code=code)
        assert vm.jit_enabled
    try:
        outcome = ("ok", vm.run(1, 2, 3, 4, 5))
    except VmError as exc:
        outcome = (type(exc).__name__, str(exc))
    return (outcome, vm.instructions_executed, vm.helper_calls_made,
            bytes(memory.data), log)


@pytest.fixture
def effects_binding(monkeypatch):
    """The binding of the ``org.effects`` plugins, declared for one test:
    a helper stated blind and one stated reaching the stack."""
    monkeypatch.setattr(core_plugin, "HOST_BINDINGS",
                        dict(core_plugin.HOST_BINDINGS))

    def helper(runtime, vm, *_):
        return 0

    return HostBinding("org.effects", helpers=(
        (HelperEffect("blind"), helper),
        (HelperEffect("poke", reaches_stack=True), helper)))


class TestDeclarationTable:
    def test_core_table_marks_exactly_the_helpers_that_take_addresses(self):
        reaching = {effect.name for effect in HELPER_EFFECTS.values()
                    if effect.reaches_stack}
        assert reaching == {"pl_memcpy", "pl_memset", "read_input_bytes",
                            "write_input_bytes", "push_message"}

    def test_plugin_declarations_extend_the_core_table(self, effects_binding):
        blind, poke = H_PLUGIN_BASE, H_PLUGIN_BASE + 1
        plugin = Plugin("org.effects.t", [])
        assert plugin.host is effects_binding
        assert plugin.host.ids == {"blind": blind, "poke": poke}
        assert plugin.helper_effects[blind].reaches_stack is False
        assert plugin.helper_effects[poke].reaches_stack is True
        assert plugin.helper_effects.items() >= HELPER_EFFECTS.items()

    def test_declaration_decides_what_the_loaded_code_writes_back(
            self, effects_binding):
        """Declared blind: no write-back.  Declared reaching, or not
        declared at all: the frame goes to the stack and comes back."""
        blind, poke, unknown = (H_PLUGIN_BASE + i for i in range(3))
        pluglet = Pluglet("p", "op", "replace", assemble(f"""
            stdw [r10-8], 1
            call {blind}
            call {poke}
            call {unknown}
            ldxdw r0, [r10-8]
            exit
        """))
        plugin = Plugin("org.effects.load", [pluglet])
        lines = [line.strip() for line in
                 plugin.load()["p"].checked.source.splitlines()]
        calls = [i for i, line in enumerate(lines) if line.startswith("_r = ")]
        assert [lines[i - 1].startswith("_wb0(") for i in calls] == [
            False, True, True]

    def test_the_wire_format_does_not_carry_declarations(self):
        plugin = build_multipath_plugin()
        bare = Plugin("org.unbound", plugin.pluglets,
                      memory_size=plugin.memory_size)
        assert bare.helper_effects == HELPER_EFFECTS
        assert bare.serialize()[1 + len("org.unbound"):] == \
            plugin.serialize()[1 + len(plugin.name):]
        # ... and a plugin received over the wire finds them by name,
        # like its host helpers.
        assert (Plugin.deserialize(plugin.serialize()).helper_effects
                == plugin.helper_effects)
