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
   plan was built.  Any `register` / `attach` / `detach` — a containment
   quarantine is a detach — moves the table's epoch and drops every
   plan; each operation rebuilds its own on its next run.  An unknown
   name raises `INTERNAL_ERROR`.
2. **External check.**  An external operation reached through `run`
   raises `PROTOCOL_VIOLATION`.  This comes before everything below: an
   external event with nothing attached still refuses protocol code.
3. **Re-entry guard.**  Every (operation, parameter) has a guard that is
   set while it runs.  Entering an operation whose guard is set raises
   `PLUGIN_LOOP_DETECTED` (Figure 3: two legitimate plugins can combine
   into a call loop).  Guards are per parameter — `process_frame[A]` may
   run `process_frame[B]`, not `process_frame[A]` — and a stray `param`
   passed to an operation that takes none shares the guard of
   `param=None`.
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
`stream_to_send`) fill a packet — until an attempt comes back empty.
Both events therefore fire once per attempt, not once per packet: a loop
that sends *n* packets makes *n* + 1 attempts, the last of which sends
nothing.

**An attempt is not made when nothing is queued and nobody is
attached.**  The loop ends without the empty attempt exactly when
`untouched` holds for those five operations *and* every queue the
default scheduler reads is empty: no ClientHello, CRYPTO data or Initial
ACK pending, no path owing an ACK or holding path-probe or PTO-probe
frames, no control or plugin-reserved frame, no stream with sendable
data, no amplification-limited path.  The test is conservative — a
congestion-blocked or amplification-limited attempt is still made (the
latter is what `stats["amp_blocked"]` counts).  A plugin or tracer on
any of the five — the multipath plugin's `mp_ack_booker` on
`before_sending_packet`, the plugin exchanger's retry tick, a profiler's
run counting — sees every attempt, the trailing empty one included,
exactly as if the shortcut did not exist
(`tests/test_quic_send_loop.py`).

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
        default = "yes" if op.defaults else "event hook (none)"
        if op.parameterized and op.defaults:
            default = f"yes ({len(op.defaults)} parameter values)"
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
