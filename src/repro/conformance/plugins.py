"""Plugin sets for conformance scenarios.

Scenarios name plugins; this registry resolves names to zero-argument
builders so every run (and every mode) gets fresh instances.  It spans
the bundled production plugins plus *test-only* plugins (``x-`` prefix)
that exist to prove the oracles can catch what they claim to catch —
most importantly :func:`build_jit_divergent_plugin`, a pluglet whose
bytecode is deliberately built differently when the JIT is enabled, the
exact class of implementation divergence the cross-mode parity oracles
must flag.
"""

from __future__ import annotations

from typing import Callable, Dict

#: Plugins that only observe (pre/post anchors, no wire or behavior
#: changes).  For scenarios using only observers the engine additionally
#: checks *transparency*: a run with the plugins stripped must be
#: bit-identical to the plugged run.
OBSERVER_PLUGINS = frozenset({"monitoring"})

#: Deterministic plugins safe for random sweeps (no extra topology or
#: application requirements).
SWEEP_PLUGINS = ("monitoring", "fec-xor", "ccontrol", "ecn")

DIVERGENT_PLUGIN_NAME = "org.conformance.jit-divergent"

#: Opaque-memory area the divergent pluglet counts in.
_DIVERGE_AREA_ID = 7
_DIVERGE_AREA_SIZE = 16


def build_jit_divergent_plugin():
    """A test-only plugin that misbehaves *only under the JIT*.

    The builder consults the ``REPRO_JIT`` switch and compiles a
    per-packet counter pluglet whose loop runs three times under the JIT
    but once under the interpreter.  Delivered bytes stay identical —
    the divergence is invisible to an end-to-end check — but per-pluglet
    fuel (and the counter it leaves in plugin memory) differ between
    modes, which the cross-mode parity oracle must catch."""
    from repro.core.plugin import Plugin, Pluglet
    from repro.vm.jit import jit_enabled_by_env

    rounds = 3 if jit_enabled_by_env() else 1
    count = Pluglet.from_source(
        "diverge_count", "packet_received_event", "post",
        f"""
def diverge_count(epoch, path_id, pn):
    st = get_opaque_data({_DIVERGE_AREA_ID}, {_DIVERGE_AREA_SIZE})
    i = 0
    while i < {rounds}:
        mem64[st] = mem64[st] + 1
        i = i + 1
""",
    )
    return Plugin(DIVERGENT_PLUGIN_NAME, [count])


def _build_conflict_plugin(suffix: str):
    """One half of a deliberately conflicting pair: both halves replace
    the same protoop, so whichever attaches second must be rejected by
    the conflict analyzer (``PRE200``)."""
    from repro.core.plugin import Plugin, Pluglet

    pluglet = Pluglet.from_source(
        f"claim_{suffix}", "conformance_conflict_op", "replace",
        f"""
def claim_{suffix}():
    return {ord(suffix)}
""",
    )
    return Plugin(f"org.conformance.conflict-{suffix}", [pluglet])


def _builtin(module: str, name: str, *args) -> Callable:
    def build():
        import importlib

        return getattr(importlib.import_module(module), name)(*args)

    return build


#: name -> zero-argument builder.
PLUGIN_BUILDERS: Dict[str, Callable] = {
    "monitoring": _builtin("repro.plugins.monitoring", "build_monitoring_plugin"),
    "fec-xor": _builtin("repro.plugins.fec", "build_fec_plugin", "xor", "full"),
    "fec-rlc": _builtin("repro.plugins.fec", "build_fec_plugin", "rlc", "full"),
    "ccontrol": _builtin("repro.plugins.ccontrol", "build_ccontrol_plugin"),
    "ecn": _builtin("repro.plugins.ecn", "build_ecn_plugin"),
    # Test-only (x- prefix): never part of shipped suites' green paths.
    "x-jit-divergent": build_jit_divergent_plugin,
    "x-conflict-a": lambda: _build_conflict_plugin("a"),
    "x-conflict-b": lambda: _build_conflict_plugin("b"),
}


def build_plugin(name: str):
    try:
        builder = PLUGIN_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown conformance plugin {name!r} "
            f"(known: {', '.join(sorted(PLUGIN_BUILDERS))})") from None
    return builder()
