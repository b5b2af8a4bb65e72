"""Regenerate results/table2_plugin_stats.txt: Table 2 of the paper.

Run from the repository root:
    PYTHONPATH=src python tools/gen_table2.py

Paper columns: LoC, pluglets, proven terminating, ELF size, compressed
size.  Our analogues: pluglet count, termination proofs from
:mod:`repro.vm.analysis.termination`, PRE instructions, serialized
bytecode size and zlib-compressed size (§3.4's exchange format).  Every
column is determined by the plugin sources and the compiler, so the file
is regenerated by this script alone and checked by ``git diff`` in CI;
``benchmarks/test_table2_plugin_stats.py`` and
``tests/test_table2_pins.py`` read the same table.
"""

import pathlib

from repro.plugins.datagram import build_datagram_plugin
from repro.plugins.fec import build_fec_plugin
from repro.plugins.monitoring import build_monitoring_plugin
from repro.plugins.multipath import build_multipath_plugin
from repro.vm.analysis.termination import check_termination

RESULT = (pathlib.Path(__file__).resolve().parent.parent / "results"
          / "table2_plugin_stats.txt")

#: Paper's Table 2, for side-by-side comparison in the output.
PAPER = {
    "Monitoring": (500, 14, 13, "86 kB", "27 kB"),
    "Datagram": (500, 11, 8, "28 kB", "25 kB"),
    "Multipath": (2600, 32, 29, "138 kB", "40 kB"),
    "FEC": (2500, 51, 37, "238 kB", "61 kB"),
}

HEADER = (f"{'Plugin':<12} {'Pluglets':>8} {'Proven':>7} {'Instr':>7} "
          f"{'Size':>8} {'Compressed':>10}   (paper: pluglets/proven/sizes)")


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
    return {
        "label": label,
        "pluglets": len(pluglets),
        "proven": proven,
        "instructions": sum(len(p.instructions) for p in pluglets),
        "size": sum(len(plugin.serialize()) for plugin in plugins),
        "compressed": sum(len(plugin.compressed()) for plugin in plugins),
    }


def build_table():
    return [
        analyze("Monitoring", [build_monitoring_plugin()]),
        analyze("Datagram", [build_datagram_plugin()]),
        analyze("Multipath", [build_multipath_plugin("rr"),
                              build_multipath_plugin("lowrtt")]),
        analyze("FEC", fec_all_variants()),
    ]


def render(table) -> list:
    """The table's rows as written to the result file, header excluded."""
    rows = []
    for entry in table:
        paper = PAPER[entry["label"]]
        rows.append(
            f"{entry['label']:<12} {entry['pluglets']:>8} "
            f"{entry['proven']:>7} {entry['instructions']:>7} "
            f"{entry['size']:>7}B {entry['compressed']:>9}B"
            f"   ({paper[1]}/{paper[2]}, {paper[3]}/{paper[4]})"
        )
    return rows


def main() -> None:
    RESULT.parent.mkdir(exist_ok=True)
    RESULT.write_text("\n".join([HEADER] + render(build_table())) + "\n")
    print(f"wrote {RESULT}")


if __name__ == "__main__":
    main()
