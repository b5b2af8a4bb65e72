"""Table 2: statistics for each implemented plugin.

The table is computed by ``tools/gen_table2.py``, which also writes
``results/table2_plugin_stats.txt``; this benchmark prints it and checks
its shape against the paper.
"""

import importlib.util
from pathlib import Path

from _util import print_table, write_rows

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_table2.py"
_spec = importlib.util.spec_from_file_location("gen_table2", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def test_table2_plugin_statistics(benchmark):
    table = benchmark.pedantic(gen.build_table, rounds=1, iterations=1)
    rows = gen.render(table)
    print_table("Table 2 — plugin statistics", gen.HEADER, rows)
    write_rows("table2_plugin_stats", gen.HEADER, rows)

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
