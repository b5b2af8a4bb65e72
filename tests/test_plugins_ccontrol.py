"""Congestion-control plugin tests (§6: CC as a protocol plugin)."""

import struct

import pytest

from repro.core import PluginInstance
from repro.experiments import run_quic_transfer
from repro.plugins.ccontrol import ST_AREA, build_ccontrol_plugin
from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection
from repro.vm.analysis.termination import check_termination
from repro.vm.interpreter import HEAP_BASE


def plugin_state(instance):
    addr = instance.runtime._opaque.get(ST_AREA)
    if addr is None:
        return None
    off = addr - HEAP_BASE
    ssthresh, acked, losses, acks = struct.unpack_from(
        "<4Q", instance.runtime.memory.data, off)
    return {"ssthresh": ssthresh, "acked": acked,
            "losses": losses, "acks": acks}


def test_pluglets_verified_and_terminating():
    for variant in ("aimd", "fixed"):
        plugin = build_ccontrol_plugin(variant)
        plugin.verify_all()
        for p in plugin.pluglets:
            assert check_termination(p.instructions).proven


def test_replaces_congestion_operations():
    conn = QuicConnection(QuicConfiguration(is_client=True))
    inst = PluginInstance(build_ccontrol_plugin("aimd"), conn)
    inst.attach()
    op = conn.protoops.get("congestion_on_ack")
    assert None in op.replacements
    inst.detach()
    assert None not in op.replacements


def test_aimd_drives_transfer_and_reacts_to_loss():
    result = run_quic_transfer(
        300_000, d_ms=10, bw_mbps=10, loss_pct=2, seed=4,
        server_plugins=[lambda: build_ccontrol_plugin("aimd")],
    )
    assert result.completed
    state = plugin_state(result.plugin_instances[0])
    assert state["acks"] > 100       # the control law actually ran
    assert state["losses"] > 0       # ...and saw losses
    assert state["ssthresh"] > 0     # ...and halved the window


def test_aimd_slow_start_grows_window():
    result = run_quic_transfer(
        100_000, d_ms=10, bw_mbps=50, seed=3,
        server_plugins=[lambda: build_ccontrol_plugin("aimd")],
    )
    assert result.completed
    inst = result.plugin_instances[0]
    # No losses: window grew beyond the 16 kB initial value.
    assert inst.conn.paths[0].cc.cwnd > 16 * 1024


def test_fixed_window_is_constant():
    result = run_quic_transfer(
        200_000, d_ms=10, bw_mbps=10, seed=3,
        server_plugins=[lambda: build_ccontrol_plugin(
            "fixed", fixed_window=48_000)],
    )
    assert result.completed
    inst = result.plugin_instances[0]
    assert inst.conn.paths[0].cc.cwnd == 48_000


def test_fixed_window_outpaces_slow_start_on_long_rtt():
    # A long-RTT path where the slow-start ramp dominates; the fixed
    # window is sized under the bottleneck buffer so the burst survives.
    base = run_quic_transfer(150_000, d_ms=50, bw_mbps=10, seed=5)
    fixed = run_quic_transfer(
        150_000, d_ms=50, bw_mbps=10, seed=5,
        server_plugins=[lambda: build_ccontrol_plugin(
            "fixed", fixed_window=100_000)],
    )
    assert fixed.dct < base.dct  # skips the slow-start ramp


def test_behaviour_differs_from_default_newreno():
    base = run_quic_transfer(300_000, d_ms=10, bw_mbps=10, loss_pct=2, seed=4)
    aimd = run_quic_transfer(
        300_000, d_ms=10, bw_mbps=10, loss_pct=2, seed=4,
        server_plugins=[lambda: build_ccontrol_plugin("aimd")],
    )
    assert base.completed and aimd.completed
    assert base.dct != aimd.dct


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        build_ccontrol_plugin("bbr")
