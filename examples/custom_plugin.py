"""Writing your own protocol plugin, end to end.

This example builds a small "tail-loss keepalive" plugin from scratch —
the kind of extension §4 says takes under 100 lines: while the connection
has data in flight and the peer has gone quiet, it books PING frames so
acknowledgements keep flowing.  You will see every stage of the paper's
pipeline:

1. author pluglets in restricted Python;
2. compile them to PRE bytecode and statically verify them (§2.1);
3. check termination (§5);
4. attach to a live connection and watch it act.

Run:  python examples/custom_plugin.py
"""

from repro.core import HostBinding, Plugin, PluginInstance, Pluglet
from repro.core.api import FLD_BYTES_IN_FLIGHT, HelperEffect
from repro.netsim import Simulator, symmetric_topology
from repro.quic import ClientEndpoint, ServerEndpoint
from repro.quic.frames import PingFrame
from repro.vm import verify
from repro.vm.analysis.termination import check_termination

PLUGIN_NAME = "org.example.keepalive"

# State layout in plugin memory: the last time (us) we saw a packet.
ST, ST_SIZE = 1, 16
QUIET_US = 50_000  # book a PING after 50 ms of receive silence


def h_send_ping(runtime, vm, *_):
    """One host function exposed to the bytecode: queue a PING frame."""
    runtime.reserve(PingFrame())
    return 1


#: The plugin's host side, declared once: every plugin of this name gets
#: it, built here or received over the wire.  ``send_ping`` does not
#: touch the calling pluglet's stack.
HOST = HostBinding(PLUGIN_NAME,
                   helpers=((HelperEffect("send_ping"), h_send_ping),))


def build_keepalive_plugin() -> Plugin:
    on_receive = Pluglet.from_source(
        "note_activity", "packet_received_event", "post",
        f"""
def note_activity(epoch, path_id, pn):
    st = get_opaque_data({ST}, {ST_SIZE})
    mem64[st] = get_time_us()
""",
        helpers=HOST.ids,
    )
    on_send = Pluglet.from_source(
        "maybe_ping", "before_sending_packet", "post",
        f"""
def maybe_ping():
    st = get_opaque_data({ST}, {ST_SIZE})
    last = mem64[st]
    if last == 0:
        return 0
    inflight = get({FLD_BYTES_IN_FLIGHT}, 0)
    now = get_time_us()
    if inflight > 0 and now - last > {QUIET_US}:
        send_ping()
        mem64[st] = now
        mem64[st + 8] = mem64[st + 8] + 1
    return 0
""",
        helpers=HOST.ids,
    )
    return Plugin(PLUGIN_NAME, [on_receive, on_send])


def main() -> None:
    plugin = build_keepalive_plugin()

    # Stage 2: static verification — every §2.1 check, per pluglet.
    for pluglet in plugin.pluglets:
        verify(pluglet.instructions)
        print(f"verified  {pluglet.name}: {len(pluglet.instructions)} instructions")

    # Stage 3: termination proofs (what a Plugin Validator would run).
    for pluglet in plugin.pluglets:
        report = check_termination(pluglet.instructions)
        print(f"terminates {pluglet.name}: {report.proven} ({report.reason})")

    # Stage 4: attach to a live connection on a blackout-prone link.
    sim = Simulator()
    topo = symmetric_topology(sim, d_ms=10, bw_mbps=10, loss_pct=15, seed=5)
    server = ServerEndpoint(sim, topo.server, "server.0", 443)
    client = ClientEndpoint(sim, topo.client, "client.0", 5000, "server.0", 443)
    instance = PluginInstance(plugin, client.conn)
    instance.attach()
    done = [False]
    server.on_connection = lambda conn: setattr(
        conn, "on_stream_data", lambda sid, d, fin: done.__setitem__(0, fin))
    client.connect()
    assert sim.run_until(lambda: client.conn.is_established, timeout=5)
    sid = client.conn.create_stream()
    client.conn.send_stream_data(sid, b"k" * 300_000, fin=True)
    client.pump()
    assert sim.run_until(lambda: done[0], timeout=120)

    pings = int.from_bytes(
        instance.runtime.memory.data[8:16], "little")
    print(f"\ntransfer done at t={sim.now:.2f}s on a 15%-loss link; "
          f"the plugin booked {pings} keepalive PINGs")


if __name__ == "__main__":
    main()
