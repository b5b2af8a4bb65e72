"""Congestion-control plugin tests (§6: CC as a protocol plugin)."""

import struct

import pytest

from repro.conformance import Scenario, Topology, Workload, run_transfer
from repro.core import PluginInstance
from repro.plugins.ccontrol import FIXED_WINDOW, ST_AREA, build_ccontrol_plugin
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


def download(size, d_ms, bw_mbps, loss_pct=0.0, seed=1, server_plugin=None):
    """One GET; ``server_plugin`` (a builder) is attached on the server
    only.  Returns the run and the server's plugin instance."""
    instances = []

    def observe(conn, side):
        if server_plugin is not None and side == "server":
            instances.append(PluginInstance(server_plugin(), conn))
            instances[-1].attach()

    run = run_transfer(
        Scenario(name="ccontrol", workload=Workload(size=size, app="bulk"),
                 topology=Topology(d_ms=d_ms, bw_mbps=bw_mbps,
                                   loss_pct=loss_pct),
                 seed=seed),
        observe=observe)
    return run, (instances[0] if instances else None)


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
    assert None in conn.protoops.get("congestion_on_ack").replacements
    inst.detach()
    assert None not in conn.protoops.get("congestion_on_ack").replacements


def test_aimd_drives_transfer_and_reacts_to_loss():
    result, inst = download(
        300_000, d_ms=10, bw_mbps=10, loss_pct=2, seed=4,
        server_plugin=lambda: build_ccontrol_plugin("aimd"))
    assert result.completed
    state = plugin_state(inst)
    assert state["acks"] > 100       # the control law actually ran
    assert state["losses"] > 0       # ...and saw losses
    assert state["ssthresh"] > 0     # ...and halved the window


def test_aimd_slow_start_grows_window():
    result, inst = download(
        100_000, d_ms=10, bw_mbps=50, seed=3,
        server_plugin=lambda: build_ccontrol_plugin("aimd"))
    assert result.completed
    # No losses: window grew beyond the 16 kB initial value.
    assert inst.conn.paths[0].cc.cwnd > 16 * 1024


def test_fixed_window_is_constant():
    result, inst = download(
        200_000, d_ms=10, bw_mbps=10, seed=3,
        server_plugin=lambda: build_ccontrol_plugin("fixed"))
    assert result.completed
    assert inst.conn.paths[0].cc.cwnd == FIXED_WINDOW


def test_fixed_window_outpaces_slow_start_on_long_rtt():
    # A long-RTT path where the slow-start ramp dominates; the fixed
    # window is sized under the bottleneck buffer so the burst survives.
    base, _ = download(150_000, d_ms=50, bw_mbps=10, seed=5)
    fixed, _ = download(
        150_000, d_ms=50, bw_mbps=10, seed=5,
        server_plugin=lambda: build_ccontrol_plugin("fixed"))
    assert fixed.dct < base.dct  # skips the slow-start ramp


def test_behaviour_differs_from_default_newreno():
    base, _ = download(300_000, d_ms=10, bw_mbps=10, loss_pct=2, seed=4)
    aimd, _ = download(
        300_000, d_ms=10, bw_mbps=10, loss_pct=2, seed=4,
        server_plugin=lambda: build_ccontrol_plugin("aimd"))
    assert base.completed and aimd.completed
    assert base.dct != aimd.dct


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        build_ccontrol_plugin("bbr")
