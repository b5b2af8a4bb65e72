"""Regenerate docs/protocol-operations.md from the live registry.

Run from the repository root:  python tools/gen_protoop_docs.py
"""

import pathlib

from repro.quic import QuicConfiguration
from repro.quic.connection import QuicConnection


#: Hand-written semantics of events whose firing rule is not obvious
#: from the name; appended after the generated table.
NOTES = """
## Event semantics

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
