"""Table 2: statistics for each implemented plugin.

Paper columns: LoC, pluglets, proven terminating, ELF size, compressed
size.  Our analogues: pluglet-source lines, pluglet count, termination
proofs from :mod:`repro.vm.analysis.termination`, serialized bytecode
size and zlib-compressed size (§3.4's exchange format).
"""

import pytest

from repro.plugins.datagram import build_datagram_plugin
from repro.plugins.fec import build_fec_plugin
from repro.plugins.monitoring import build_monitoring_plugin
from repro.plugins.multipath import build_multipath_plugin
from repro.vm.analysis.termination import check_termination

from _util import print_table, write_rows

#: Paper's Table 2, for side-by-side comparison in the output.
PAPER = {
    "Monitoring": (500, 14, 13, "86 kB", "27 kB"),
    "Datagram": (500, 11, 8, "28 kB", "25 kB"),
    "Multipath": (2600, 32, 29, "138 kB", "40 kB"),
    "FEC": (2500, 51, 37, "238 kB", "61 kB"),
}


def fec_all_variants():
    """The paper's FEC row sums the window framework with both ECCs and
    both transmission modes; mirror that aggregation."""
    return [build_fec_plugin(ecc, mode)
            for ecc in ("xor", "rlc") for mode in ("full", "eos")]


def analyze(label, plugins):
    pluglets = [p for plugin in plugins for p in plugin.pluglets]
    proven = sum(
        1 for p in pluglets if check_termination(p.instructions).proven
    )
    instructions = sum(len(p.instructions) for p in pluglets)
    size = sum(len(plugin.serialize()) for plugin in plugins)
    compressed = sum(len(plugin.compressed()) for plugin in plugins)
    return {
        "label": label,
        "pluglets": len(pluglets),
        "proven": proven,
        "instructions": instructions,
        "size": size,
        "compressed": compressed,
    }


def build_table():
    return [
        analyze("Monitoring", [build_monitoring_plugin()]),
        analyze("Datagram", [build_datagram_plugin()]),
        analyze("Multipath", [build_multipath_plugin("rr"),
                              build_multipath_plugin("lowrtt")]),
        analyze("FEC", fec_all_variants()),
    ]


def test_table2_plugin_statistics(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    header = (f"{'Plugin':<12} {'Pluglets':>8} {'Proven':>7} {'Instr':>7} "
              f"{'Size':>8} {'Compressed':>10}   (paper: pluglets/proven/sizes)")
    rows = []
    for entry in table:
        paper = PAPER[entry["label"]]
        rows.append(
            f"{entry['label']:<12} {entry['pluglets']:>8} "
            f"{entry['proven']:>7} {entry['instructions']:>7} "
            f"{entry['size']:>7}B {entry['compressed']:>9}B"
            f"   ({paper[1]}/{paper[2]}, {paper[3]}/{paper[4]})"
        )
    print_table("Table 2 — plugin statistics", header, rows)
    write_rows("table2_plugin_stats", header, rows)

    by_label = {e["label"]: e for e in table}
    # Shape checks against the paper.
    assert by_label["Monitoring"]["pluglets"] == 14  # exact match
    # FEC is the largest plugin, monitoring/datagram the smallest.
    assert by_label["FEC"]["pluglets"] > by_label["Multipath"]["pluglets"] \
        or by_label["FEC"]["size"] > by_label["Datagram"]["size"]
    assert by_label["FEC"]["size"] > by_label["Monitoring"]["size"]
    # Compression always helps (§3.4: duplicate code across pluglets).
    for entry in table:
        assert entry["compressed"] < entry["size"]
    # Most pluglets provable, as in the paper.
    for entry in table:
        assert entry["proven"] >= 0.7 * entry["pluglets"]
