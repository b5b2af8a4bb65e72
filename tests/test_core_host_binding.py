"""One host binding per plugin: a plugin received over the wire gets the
host side of the plugin built here — the same helpers and effects, the
same frames registered at attach, the same host parameters — because
both find it by name."""

import pytest

from repro.core import FieldPolicy, PluginCache, PluginInstance
from repro.core.plugin import Plugin, host_binding, name_param
from repro.plugins import (
    build_ccontrol_plugin,
    build_datagram_plugin,
    build_ecn_plugin,
    build_fec_plugin,
    build_monitoring_plugin,
    build_multipath_plugin,
)
from repro.plugins.ccontrol import FIXED_WINDOW
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection

#: Every bundled builder, with each parameterisation a caller outside the
#: tests uses (FEC code rates are the ablation's sweep).
BUILDS = {
    "monitoring": build_monitoring_plugin,
    "multipath": build_multipath_plugin,
    "datagram": build_datagram_plugin,
    "ecn": build_ecn_plugin,
    "ccontrol-aimd": lambda: build_ccontrol_plugin("aimd"),
    "ccontrol-fixed": lambda: build_ccontrol_plugin("fixed"),
    **{f"fec-{ecc}-{mode}-r{repair}":
       (lambda e=ecc, m=mode, r=repair: build_fec_plugin(e, m, repair=r))
       for ecc in ("xor", "rlc") for mode in ("full", "eos")
       for repair in (1, 3, 5, 8)},
}


def received(plugin):
    return Plugin.deserialize(plugin.serialize())


def attached(plugin):
    conn = QuicConnection(QuicConfiguration(is_client=True))
    instance = PluginInstance(plugin, conn)
    instance.attach()
    return conn, instance


def host_side(plugin):
    conn, instance = attached(plugin)
    state = getattr(instance.runtime, "fec_state", None)
    return (plugin.host.ids,
            plugin.helper_effects,
            sorted(instance.runtime.extra_helpers),
            [t for t in range(0x100) if conn.frame_registry.known(t)],
            [path.cc.cwnd for path in conn.paths],
            state and (state.repair, state.ecc, state.window))


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_a_received_plugin_has_the_host_side_of_the_built_one(build):
    plugin = build()
    copy = received(plugin)
    assert copy.name == plugin.name
    assert copy.host is plugin.host
    assert host_side(copy) == host_side(plugin)


@pytest.mark.parametrize("repair", (1, 3, 5, 8))
def test_fec_repair_survives_the_wire(repair):
    _, instance = attached(received(build_fec_plugin("rlc", "full",
                                                     repair=repair)))
    assert instance.runtime.fec_state.repair == repair
    assert instance.runtime.fec_state.ecc == "rlc"


def host_window():
    return [path.cc.cwnd for path in
            QuicConnection(QuicConfiguration(is_client=True)).paths]


def test_a_received_fixed_controller_sets_its_window():
    assert host_window() != [FIXED_WINDOW]
    conn, _ = attached(received(build_ccontrol_plugin("fixed")))
    assert [path.cc.cwnd for path in conn.paths] == [FIXED_WINDOW]


def test_a_fixed_window_is_not_taken_from_the_name():
    fixed = build_ccontrol_plugin("fixed")
    peer_named = received(Plugin("org.pquic.ccontrol.fixed.cwnd=0",
                                 fixed.pluglets))
    conn, _ = attached(peer_named)
    assert [path.cc.cwnd for path in conn.paths] == [FIXED_WINDOW]


def test_a_fixed_controller_obeys_the_field_policy():
    """A host that forbids plugins writing ``cwnd`` keeps its own window
    when a ``fixed`` controller is injected from the cache."""
    cache = PluginCache()
    cache.store(received(build_ccontrol_plugin("fixed")))
    conn = QuicConnection(QuicConfiguration(is_client=True))
    conn.field_policy = FieldPolicy(forbidden_writes={"cwnd"})
    cache.instantiate("org.pquic.ccontrol.fixed", conn).attach()
    assert [path.cc.cwnd for path in conn.paths] == host_window()


def test_default_variants_keep_their_names():
    assert build_fec_plugin().name == "org.pquic.fec.rlc.full"
    assert build_fec_plugin("xor", "eos", repair=8).name == \
        "org.pquic.fec.xor.eos"
    assert build_ccontrol_plugin("fixed").name == "org.pquic.ccontrol.fixed"


def test_fec_variants_with_different_repair_share_one_cache():
    three, eight = (build_fec_plugin("rlc", "full", repair=r) for r in (3, 8))
    assert three.name != eight.name
    cache = PluginCache()
    cache.store(three)
    cache.store(eight)
    assert cache.get(three.name) is three and cache.get(eight.name) is eight
    for plugin, repair in ((three, 3), (eight, 8)):
        conn = QuicConnection(QuicConfiguration())
        instance = cache.instantiate(plugin.name, conn)
        assert instance.runtime.fec_state.repair == repair


def test_the_longest_declared_prefix_binds():
    assert host_binding("org.pquic.fec.rlc.full.repair=3").prefix == \
        "org.pquic.fec"
    assert host_binding("org.pquic.datagram").prefix == "org.pquic.datagram"
    assert host_binding("org.pquic.ccontrol.fixed").on_attach is not None
    assert host_binding("org.pquic.ccontrol.aimd").on_attach is None
    # A name segment is matched whole, and an undeclared name gets the
    # core API alone.
    assert host_binding("org.pquic.ccontrol.fixedX").on_attach is None
    assert host_binding("org.pquic.datagrams").prefix == ""
    assert host_binding("org.unknown").ids == {}


def test_name_params_are_read_back_from_segments():
    name = "org.pquic.fec.rlc.full.repair=3"
    assert name_param(name, "repair", 5) == 3
    assert name_param(name, "window", 25) == 25
    assert name_param("org.x.repair=lots", "repair", 7) == 7


@pytest.mark.parametrize(
    "value", ["\u00b2", "\u0663", "1" * 5000, "", "-1", "1234567890"],
    ids=["superscript", "arabic-indic", "5000-digits", "empty", "negative",
         "ten-digits"])
def test_a_malformed_name_param_falls_back_to_the_default(value):
    name = f"org.pquic.fec.rlc.full.repair={value}"
    assert name_param(name, "repair", 5) == 5
    peer_named = received(Plugin(name, build_fec_plugin().pluglets))
    cache = PluginCache()
    cache.store(peer_named)
    conn = QuicConnection(QuicConfiguration())
    instance = cache.instantiate(name, conn)
    instance.attach()
    assert instance.runtime.fec_state.repair == 5
