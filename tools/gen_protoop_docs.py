"""Regenerate docs/protocol-operations.md from the live registry.

Run from the repository root:  python tools/gen_protoop_docs.py
"""

import pathlib

from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection


#: Hand-written semantics — how a run proceeds, and events whose firing
#: rule is not obvious from the name; appended after the generated table.
NOTES = """
## Dispatch semantics

`ProtoopTable.run(conn, name, param, *args)` — and `run_external`, the
application's door to it (§2.4) — is the only way an operation executes,
and `register` / `attach` the only way a behaviour enters a table.  One
run, in this order:

1. **Plan lookup.**  The table keeps one call plan per (name, param):
   the pre observers, the behaviour (the `replace` pluglet if there is
   one, else the default) and the post observers as they stood when the
   plan was built.  The rows are the census's: each connection class
   builds its census once (`QuicConnection.protoop_census()`), whose
   defaults are the class's `_op_*` functions, called with the
   connection as `self`.  A connection's table holds only what was
   registered or attached to it; the plan of an operation it changed
   nothing on is built once per census and shared by every connection
   of the class.  Any `register` / `attach` / `detach` on an existing
   operation — a containment quarantine is a detach, a plugin's whole
   attach is one change — moves the table's epoch and drops its plans;
   the next run starts again from the shared ones and each changed
   operation rebuilds its own.  An unknown name raises
   `INTERNAL_ERROR`.
2. **External check.**  An external operation reached through `run`
   raises `PROTOCOL_VIOLATION`.  This comes before everything below: an
   external event with nothing attached still refuses protocol code.
3. **Re-entry guard.**  Every (operation, parameter) has a guard that is
   set while it runs.  Entering an operation whose guard is set raises
   `PLUGIN_LOOP_DETECTED` (Figure 3: two legitimate plugins can combine
   into a call loop).  Guards are per parameter — `process_frame[A]` may
   run `process_frame[B]`, not `process_frame[A]` — and a stray `param`
   passed to an operation that takes none shares the guard of
   `param=None`.  Guards are per connection, also under a shared plan.
4. **`runs` is incremented** — refused runs (2, 3) are not counted.
5. **Pre observers**, in attachment order, as `observer(conn, args)`;
   **the behaviour**, as `behaviour(conn, *args)` — `None` when the
   operation is an event without one; **post observers**, as
   `observer(conn, args, result)`.  The behaviour's result is the run's.
   An exception anywhere skips the rest, releases the guard and
   propagates.

### What a mid-run attach or detach sees

Observers and behaviours may change the table they are running under (a
faulting pluglet is quarantined from inside its own invocation).  The
timeline is the one an uncached, anchor-by-anchor dispatcher would give:

* the **pre chain** is fixed when the run starts — a pre observer
  attached during the run first fires on the next one, one detached
  during the run still fires if its turn had not come;
* the **behaviour** is resolved after the pre chain — a replacement
  attached or detached by a pre observer decides this run;
* the **post chain** is resolved after the behaviour returns — a post
  observer attached by a pre observer or by the behaviour itself fires
  in this run, one detached does not;
* the **guard** belongs to the (operation, parameter), not to a plan:
  it stays set across any number of invalidations, so an observer that
  detaches itself and then runs its own operation still gets
  `PLUGIN_LOOP_DETECTED`.

`tests/test_core_dispatch_equivalence.py` holds a reference dispatcher
with exactly these rules and compares `ProtoopTable` against it on random
programs of register / attach / detach / run whose functions do all of
the above.

### What a run costs when nothing is attached

A run pays for what is attached to it.  With no observer the plan is
*bare*: the behaviour is called between setting and clearing the guard,
followed by one epoch compare (a post observer the behaviour attached to
its own operation).  An **event nobody observes** — no behaviour, no
observer, a quarter of all runs on a plugin-less connection — returns
after step 4: no call, no guard set, no allocation.  On CPython 3.11 the
dispatcher's own cost is ≈ 0.36 µs for a bare default and ≈ 0.17 µs for
an unobserved event (`docs/performance.md`, Layer 2);
`tests/test_core_dispatch_cache.py::TestDispatchCostGate` pins both by
counting Python-level calls rather than timing them.

### When a caller may skip a run: `untouched(names)`

`ProtoopTable.untouched(names)` is true while none of the named
operations has a pre or post observer or a replacement, and run counting
is off — running any of them can then do nothing but its built-in
default.  The verdict is resolved once per epoch and dropped with the
plans, so an `attach` / `detach` / quarantine re-opens the question.  It
does not run anything and is not a second way in: a caller that can
prove the defaults are no-ops for its current state uses it to leave the
runs out; the moment anything is attached, every run is made again.  The
send loop is the one caller (below).

## Event semantics

### `prepare_packet` / `before_sending_packet`: once per *attempt*

`datagrams_to_send` loops: each turn is one **attempt** — one run of
`prepare_packet`, which fires `before_sending_packet`, asks
`select_sending_path`, and has `schedule_frames` (and through it
`stream_to_send`, and `is_ack_needed` when an owed ACK would leave
alone) fill a packet — until an attempt comes back empty.
Both events therefore fire once per attempt, not once per packet: a loop
that sends *n* packets makes *n* + 1 attempts, the last of which sends
nothing.

**An attempt is not made when nothing is queued and nobody is
attached.**  The loop ends without the empty attempt exactly when
`untouched` holds for those six operations *and* every queue the
default scheduler reads is empty: no ClientHello, CRYPTO data or Initial
ACK pending, no path owing a due ACK or holding path-probe or PTO-probe
frames, no control or plugin-reserved frame, no stream with sendable
data, no amplification-limited path.  The test is conservative — a
congestion-blocked or amplification-limited attempt is still made (the
latter is what `stats["amp_blocked"]` counts).  A plugin or tracer on
any of the six — the multipath plugin's `mp_ack_booker` on
`before_sending_packet`, the plugin exchanger's retry tick, a profiler's
run counting — sees every attempt, the trailing empty one included,
exactly as if the shortcut did not exist
(`tests/test_quic_send_loop.py`).

### `is_ack_needed(path)`: may an ACK-only packet leave now

An ACK frame rides on any packet that leaves anyway; `is_ack_needed` is
asked only when the owed ACK of a path's space would leave alone, and
says whether it may (RFC 9000 §13.2.1).  Its default is "an ACK is owed
and due".  When an ack-eliciting packet arrives, the receiver sets the
due time: at once for a packet received before the handshake completed,
one out of order (a gap, or below the largest received) or the second
ack-eliciting packet owed (§13.2.2); our `max_ack_delay` transport
parameter after receipt otherwise.  `next_timer` wakes the connection
when an owed ACK falls due.  Initial ACKs are always due and do not ask.
A plugin that replaces it (to ack every packet at once, say) also turns
off the send loop's skip, so its answer is asked on every attempt that
owes an ACK; one that answers "no" past the due time arms its own
wake-up.

### `on_packet_acked` / `on_packet_lost` / `congestion_on_ack` / `congestion_on_loss`

`on_packet_acked(pkt, path)` runs once per newly acknowledged packet and
`on_packet_lost(pkt, path)` once per packet declared lost.  For a packet
that counted toward bytes in flight, their defaults first release it
from flight (`CongestionController.on_packet_released`), then run
`congestion_on_ack` / `congestion_on_loss(pkt, path)`, and then publish
the window.  Publishing means `congestion_state_changed(path, old, new,
trigger)` if the controller's state label moved, and
`cc_window_updated(path, cwnd)` always.  An undone loss
(`on_spurious_loss`) and a persistent-congestion collapse publish the
same way.

**A replacement of `congestion_on_ack` / `congestion_on_loss` moves the
window only** (NewReno's law, or the CC plugin's `set(cwnd)`).  Flight
bookkeeping and window publication stay with the host.  The host does
them around the operation, so a plugin-moved window reaches
`cc_window_updated` observers, monitoring's `cwnd_observer` and the
tracer exactly as NewReno's does.  A replacement of `on_packet_acked` /
`on_packet_lost` takes over all three steps, and the frame
notifications as well.

### `stream_opened` / `stream_closed`

`stream_opened(stream_id)` fires when the local application creates a
stream (`create_stream`); streams the peer opens do not fire it.

`stream_closed(stream_id)` fires **at most once per stream half**, at
the moment the half is retired from the live tables
(`streams_send` / `streams_recv`, see "Stream lifecycle" in DESIGN.md):

* the **send half**, when its FIN and every byte before it have been
  acknowledged.  Further acknowledgements of the same final frame (a PTO
  probe and its original are both tracked) find the half retired and do
  not fire again.  A stream written without FIN is not closed, however
  much of it has been acknowledged, and does not fire;
* the **receive half**, when RESET_STREAM arrives for it.  A repeated or
  late RESET_STREAM for a retired half is ignored.  A receive half that
  ends normally (final size known, every byte delivered) is retired
  without the event: the application already saw `fin=True` through
  `stream_data_received`.

A bidirectional stream can therefore fire `stream_closed` twice, once
per half; the monitoring plugin's `streams_closed` counts these runs.

## Flow control

### `update_flow_credit` / `should_send_max_data`

`update_flow_credit()` runs after every STREAM and RESET_STREAM frame the
connection processes, and is the one place receive credit is renewed: a
plugin that replaces it replaces the whole policy.  Its default renews

* the **connection** window when `should_send_max_data()` says so — by
  default once more than half of it is used (`data_received >
  max_data_local − window / 2`);
* every live **receive stream** whose highest received offset passed
  half of its window.

A renewal first retunes the window (`repro.quic.stream.FlowWindow`):

    window = max(window, 2.5 × bytes received since the previous renewal
                         ÷ time elapsed since it × path 0's min RTT)

capped at 16 × the initial window (`initial_max_data`,
`initial_max_stream_data`), and then advertises *base* + window in
MAX_DATA (*base*: bytes received) or MAX_STREAM_DATA (*base*: the read
offset).  Credit already granted is never taken back: a renewal that
would not raise the limit queues nothing and leaves the rate measurement
running.  Until path 0 has an RTT sample the window keeps its size.  A
sender that does not fill the window — an application-limited trickle,
request/response traffic — therefore never grows it, and a bulk sender
grows it about 25 % per renewal until it carries ≈ 2.5 bandwidth-delay
products.  `flow_control_raised(max_data)` fires after each MAX_DATA is
queued.  Replacing `should_send_max_data` changes *when* the connection
window is renewed, not by how much.
"""


def main() -> None:
    conn = QuicConnection(QuicConfiguration(is_client=True))
    table = conn.protoops
    lines = [
        "# Protocol operations reference",
        "",
        "Generated from the live registry "
        f"(`QuicConnection` registers {table.operation_count()} operations, "
        f"{table.parameterized_count()} parameterized — the paper's §2.2 "
        "counts).",
        "",
        "Each operation exposes `replace` / `pre` / `post` anchors; "
        "operations",
        "marked *external* are callable only by the application (§2.4);",
        "operations with no default are empty-anchor connection events.",
        "",
        "| operation | parameterized | external | default behaviour |",
        "|---|---|---|---|",
    ]
    for name in table.names:
        op = table.get(name)
        defaults = sum(table.default(name, param) is not None
                       for param in table.known_params(name))
        default = "yes" if defaults else "event hook (none)"
        if op.parameterized and defaults:
            default = f"yes ({defaults} parameter values)"
        lines.append(
            f"| `{name}` | {'yes' if op.parameterized else ''} "
            f"| {'yes' if op.external else ''} | {default} |"
        )
    out = pathlib.Path(__file__).resolve().parent.parent / "docs"
    out.mkdir(exist_ok=True)
    (out / "protocol-operations.md").write_text("\n".join(lines) + "\n" + NOTES)
    print(f"wrote {table.operation_count()} operations")


if __name__ == "__main__":
    main()
